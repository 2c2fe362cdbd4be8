package core

import (
	"fmt"
	"slices"

	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/ta"
)

// sbMatcher is the paper's skyline-based algorithm (Algorithm 1 with the
// § IV modules):
//
//  1. compute the skyline of O with BBS, tracking pruned entries;
//  2. for every skyline object, find its best function by TA-based
//     reverse top-1 over the coefficient lists (BestPair, § IV-A);
//  3. report every pair (f, o) with o.fbest = f and f.obest = o — all are
//     stable by Property 1 (§ IV-C); at least one always exists;
//  4. remove the matched functions and objects, update the skyline through
//     the pruned-entry lists (§ IV-B), and repeat.
//
// Between loops the matcher caches each skyline object's best function
// (invalidated only when that function is assigned) and each candidate
// function's best object (invalidated when that object is assigned, updated
// when new objects enter the skyline), so per-loop work is proportional to
// what actually changed.
type sbMatcher struct {
	fns   []prefs.Function
	lists *ta.Lists
	maint SkylineSource
	c     *stats.Counters

	multiPair bool
	started   bool
	done      bool
	resid     *residual

	// ocache maps a skyline object ID to its best function; entries exist
	// for exactly the current skyline members.
	ocache map[index.ObjID]obCache
	// fcache holds, per function position, the function's best object over
	// the current skyline; entries may be stale-marked (valid=false) but
	// never wrong. Dense indexing keeps the refresh pass in function order
	// (a map would iterate randomly) and allocation-free.
	fcache []fnCache

	queue pairQueue // emitted but not yet returned by Next

	loopScratch // per-loop reusable state, shared shape with genericSB
}

type obCache struct {
	fnIdx int
	score float64
}

type fnCache struct {
	obj   *skyline.Object
	score float64
	valid bool
}

func newSB(tree index.ObjectIndex, fns []prefs.Function, opts *Options, c *stats.Counters) (*sbMatcher, error) {
	sky := skyline.New(tree, opts.SkylineMode, c)
	sky.SetCancel(opts.Cancel)
	return newSBOver(sky, fns, opts, c)
}

// newSBOver builds the SB loop over an explicit skyline source: the
// single-index skyline.Maintainer, or the sharded cross-shard merge. The
// loop's emissions depend only on the skyline *sets* the source reports
// (every per-loop decision is resolved by the deterministic preference
// orders, never by discovery order), so any source that maintains the
// correct skyline of the remaining objects yields the identical stream.
func newSBOver(src SkylineSource, fns []prefs.Function, opts *Options, c *stats.Counters) (*sbMatcher, error) {
	lists, err := ta.NewLists(fns, c)
	if err != nil {
		return nil, err
	}
	lists.TightThreshold = !opts.DisableTightThreshold
	return &sbMatcher{
		fns:         fns,
		lists:       lists,
		maint:       src,
		c:           c,
		multiPair:   !opts.DisableMultiPair,
		resid:       newResidual(opts.Capacities),
		ocache:      map[index.ObjID]obCache{},
		fcache:      make([]fnCache, len(fns)),
		loopScratch: newLoopScratch(len(fns)),
	}, nil
}

func (m *sbMatcher) Counters() *stats.Counters { return m.c }

func (m *sbMatcher) Next() (Pair, bool, error) {
	if p, ok := m.queue.pop(); ok {
		return p, true, nil
	}
	if m.done {
		return Pair{}, false, nil
	}
	if !m.started {
		if err := m.start(); err != nil {
			return Pair{}, false, err
		}
	}
	for m.queue.len() == 0 {
		if m.lists.AliveCount() == 0 || m.maint.Size() == 0 {
			m.done = true
			return Pair{}, false, nil
		}
		if err := m.loop(); err != nil {
			return Pair{}, false, err
		}
	}
	p, _ := m.queue.pop()
	return p, true, nil
}

// start computes the initial skyline and the best function of every member.
func (m *sbMatcher) start() error {
	if err := m.maint.Compute(); err != nil {
		return err
	}
	for _, o := range m.maint.Skyline() {
		idx, score, ok := m.lists.ReverseTop1(o.Point)
		if !ok {
			return fmt.Errorf("core: no functions for skyline object %d", o.ID)
		}
		m.ocache[o.ID] = obCache{fnIdx: idx, score: score}
	}
	m.started = true
	return nil
}

// loop runs one iteration of Algorithm 1, emitting at least one stable pair
// into the queue.
func (m *sbMatcher) loop() error {
	m.c.Loops++
	m.gen++
	sky := m.maint.Skyline()

	// Fbest: the distinct best functions over the skyline, in deterministic
	// (skyline discovery) order.
	fbestOrder := m.fbest[:0]
	for _, o := range sky {
		oc, ok := m.ocache[o.ID]
		if !ok {
			return fmt.Errorf("core: missing ocache for skyline object %d", o.ID)
		}
		if m.fbestGen[oc.fnIdx] != m.gen {
			m.fbestGen[oc.fnIdx] = m.gen
			fbestOrder = append(fbestOrder, oc.fnIdx)
		}
	}
	m.fbest = fbestOrder

	// Ensure every f in Fbest has a valid best object over the skyline.
	for _, fIdx := range fbestOrder {
		if m.fcache[fIdx].valid {
			continue
		}
		best := (*skyline.Object)(nil)
		bestScore := 0.0
		f := m.fns[fIdx]
		for _, o := range sky {
			m.c.ScoreEvals++
			s := f.Score(o.Point)
			if best == nil || prefs.BetterObj(s, o.Sum, int(o.ID), bestScore, best.Sum, int(best.ID)) {
				best, bestScore = o, s
			}
		}
		m.fcache[fIdx] = fnCache{obj: best, score: bestScore, valid: true}
	}

	// Collect the mutually-best pairs (§ IV-C). Each is stable by
	// Property 1. Without multi-pair (ablation), keep only the globally
	// best one.
	pairs := m.pairs[:0]
	for _, fIdx := range fbestOrder {
		fc := m.fcache[fIdx]
		if m.ocache[fc.obj.ID].fnIdx == fIdx {
			pairs = append(pairs, matchedPair{fIdx: fIdx, obj: fc.obj, score: fc.score})
		}
	}
	m.pairs = pairs
	if len(pairs) == 0 {
		return fmt.Errorf("core: no stable pair found in loop %d (invariant violation)", m.c.Loops)
	}
	// Order by the global pair order; the first element is the pair the
	// plain greedy process would emit now.
	slices.SortFunc(pairs, func(a, b matchedPair) int {
		return prefs.PairKey{Score: a.score, ObjSum: a.obj.Sum, FuncID: m.fns[a.fIdx].ID, ObjID: int(a.obj.ID)}.
			Compare(prefs.PairKey{Score: b.score, ObjSum: b.obj.Sum, FuncID: m.fns[b.fIdx].ID, ObjID: int(b.obj.ID)})
	})
	if !m.multiPair {
		pairs = pairs[:1]
	}

	// Emit; remove functions always, objects only when their capacity is
	// exhausted (the default capacity is 1, the paper's 1-1 model).
	removedObjs := m.removed[:0]
	for _, p := range pairs {
		m.queue.push(Pair{FuncID: m.fns[p.fIdx].ID, ObjID: p.obj.ID, Score: p.score})
		m.c.PairsEmitted++
		m.matchedGen[p.fIdx] = m.gen
		if err := m.lists.Remove(p.fIdx); err != nil {
			return err
		}
		m.fcache[p.fIdx] = fnCache{}
		if m.resid.take(p.obj.ID) {
			removedObjs = append(removedObjs, p.obj.ID)
			delete(m.ocache, p.obj.ID)
		}
		// A surviving object keeps its skyline slot; its ocache entry
		// points at the just-matched function and is refreshed below.
	}
	m.removed = removedObjs

	// Skyline maintenance (§ IV-B): promote what the removed objects were
	// exclusively dominating.
	added, err := m.maint.Remove(removedObjs)
	if err != nil {
		return err
	}

	if m.lists.AliveCount() == 0 {
		return nil
	}

	// Refresh ocache: objects whose best function was just assigned need a
	// new reverse top-1; new skyline members need their first one.
	for _, o := range m.maint.Skyline() {
		oc, ok := m.ocache[o.ID]
		if ok && m.matchedGen[oc.fnIdx] != m.gen {
			continue
		}
		idx, score, okTA := m.lists.ReverseTop1(o.Point)
		if !okTA {
			return fmt.Errorf("core: function set exhausted with objects remaining")
		}
		m.ocache[o.ID] = obCache{fnIdx: idx, score: score}
	}

	// Refresh fcache: invalidate entries whose best object was assigned,
	// then challenge the surviving entries with the newly promoted objects.
	// Dense iteration runs in function order — the map it replaced iterated
	// randomly.
	m.removedQ.reset(removedObjs)
	for fIdx := range m.fcache {
		fc := m.fcache[fIdx]
		if !fc.valid {
			continue
		}
		if m.removedQ.has(fc.obj.ID) {
			fc.valid = false
			m.fcache[fIdx] = fc
			continue
		}
		for _, o := range added {
			m.c.ScoreEvals++
			s := m.fns[fIdx].Score(o.Point)
			if prefs.BetterObj(s, o.Sum, int(o.ID), fc.score, fc.obj.Sum, int(fc.obj.ID)) {
				fc.obj, fc.score = o, s
			}
		}
		m.fcache[fIdx] = fc
	}
	return nil
}
