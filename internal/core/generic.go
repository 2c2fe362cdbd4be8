package core

import (
	"errors"
	"fmt"
	"slices"

	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
)

// The paper's model admits "any monotone function" (§ II), even though its
// presentation and experiments use linear ones. This file extends the
// matchers beyond linearity: a GenericPreference only has to be monotone
// (weakly dominating objects never score lower). The skyline machinery is
// unchanged — the top-1 object of any monotone preference is on the
// skyline — but the TA-based reverse top-1 (which requires coefficient
// lists) is replaced by a scan over the skyline, and the Chain baseline
// (which requires an R-tree over linear weights) is unavailable.

// GenericPreference is a monotone scoring function with an identity.
type GenericPreference struct {
	ID   int
	Pref prefs.Preference
}

// MatchGeneric computes the stable matching between the objects in tree and
// a set of monotone preferences. Algorithms: AlgSB (default) and
// AlgBruteForce; AlgChain returns an error because it needs linear weights
// to index.
func MatchGeneric(tree index.ObjectIndex, gps []GenericPreference, opts *Options) ([]Pair, error) {
	m, err := NewGenericMatcher(tree, gps, opts)
	if err != nil {
		return nil, err
	}
	return MatchAll(m)
}

// NewGenericMatcher builds a progressive matcher over monotone preferences.
func NewGenericMatcher(tree index.ObjectIndex, gps []GenericPreference, opts *Options) (Matcher, error) {
	if opts == nil {
		opts = &Options{}
	}
	if tree == nil {
		return nil, errors.New("core: nil object tree")
	}
	if len(gps) == 0 {
		return nil, errors.New("core: empty preference set")
	}
	seen := make(map[int]bool, len(gps))
	for _, gp := range gps {
		if gp.Pref == nil {
			return nil, fmt.Errorf("core: preference %d is nil", gp.ID)
		}
		if seen[gp.ID] {
			return nil, fmt.Errorf("core: duplicate preference ID %d", gp.ID)
		}
		seen[gp.ID] = true
	}
	for id, cap := range opts.Capacities {
		if cap < 1 {
			return nil, fmt.Errorf("core: object %d has capacity %d (< 1)", id, cap)
		}
	}
	c, prev := redirectCounters(tree, opts.Counters)
	var inner Matcher
	switch opts.Algorithm {
	case AlgSB:
		inner = newGenericSB(tree, gps, opts, c)
	case AlgBruteForce:
		inner = newGenericBF(tree, gps, opts, c)
	default:
		if prev != nil {
			tree.SetCounters(prev)
		}
		if opts.Algorithm == AlgChain {
			return nil, errors.New("core: Chain requires linear preferences (weight vectors to index)")
		}
		return nil, fmt.Errorf("core: unknown algorithm %d", opts.Algorithm)
	}
	if prev != nil {
		inner = &restoreMatcher{Matcher: inner, tree: tree, prev: prev}
	}
	return inner, nil
}

// genericSB is the SB loop with a scan-based BestPair. The per-loop
// structure, the caching discipline, and the multi-pair emission are
// identical to the linear sbMatcher.
type genericSB struct {
	tree  index.ObjectIndex
	gps   []GenericPreference
	maint *skyline.Maintainer
	c     *stats.Counters

	multiPair bool
	started   bool
	done      bool
	alive     []bool
	live      int
	resid     *residual

	ocache map[index.ObjID]obCache
	fcache []fnCache // dense, indexed by preference position (see sbMatcher)
	queue  pairQueue

	loopScratch // per-loop reusable state, shared shape with sbMatcher
}

func newGenericSB(tree index.ObjectIndex, gps []GenericPreference, opts *Options, c *stats.Counters) *genericSB {
	m := &genericSB{
		tree:        tree,
		gps:         gps,
		maint:       skyline.New(tree, opts.SkylineMode, c),
		c:           c,
		multiPair:   !opts.DisableMultiPair,
		alive:       make([]bool, len(gps)),
		live:        len(gps),
		resid:       newResidual(opts.Capacities),
		ocache:      map[index.ObjID]obCache{},
		fcache:      make([]fnCache, len(gps)),
		loopScratch: newLoopScratch(len(gps)),
	}
	for i := range m.alive {
		m.alive[i] = true
	}
	return m
}

func (m *genericSB) Counters() *stats.Counters { return m.c }

// bestPrefFor scans the alive preferences for the one scoring p highest
// (object-side order: score desc, then smaller preference ID).
func (m *genericSB) bestPrefFor(o *skyline.Object) (int, float64, bool) {
	best := -1
	bestScore := 0.0
	for i := range m.gps {
		if !m.alive[i] {
			continue
		}
		m.c.ScoreEvals++
		s := m.gps[i].Pref.Score(o.Point)
		if best < 0 || prefs.BetterFunc(s, m.gps[i].ID, bestScore, m.gps[best].ID) {
			best, bestScore = i, s
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestScore, true
}

func (m *genericSB) Next() (Pair, bool, error) {
	if p, ok := m.queue.pop(); ok {
		return p, true, nil
	}
	if m.done {
		return Pair{}, false, nil
	}
	if !m.started {
		if err := m.maint.Compute(); err != nil {
			return Pair{}, false, err
		}
		for _, o := range m.maint.Skyline() {
			idx, score, ok := m.bestPrefFor(o)
			if !ok {
				return Pair{}, false, errors.New("core: no live preferences")
			}
			m.ocache[o.ID] = obCache{fnIdx: idx, score: score}
		}
		m.started = true
	}
	for m.queue.len() == 0 {
		if m.live == 0 || m.maint.Size() == 0 {
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

func (m *genericSB) loop() error {
	m.c.Loops++
	m.gen++
	sky := m.maint.Skyline()

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
	for _, fIdx := range fbestOrder {
		if m.fcache[fIdx].valid {
			continue
		}
		best := (*skyline.Object)(nil)
		bestScore := 0.0
		p := m.gps[fIdx].Pref
		for _, o := range sky {
			m.c.ScoreEvals++
			s := p.Score(o.Point)
			if best == nil || prefs.BetterObj(s, o.Sum, int(o.ID), bestScore, best.Sum, int(best.ID)) {
				best, bestScore = o, s
			}
		}
		m.fcache[fIdx] = fnCache{obj: best, score: bestScore, valid: true}
	}

	pairs := m.pairs[:0]
	for _, fIdx := range fbestOrder {
		fc := m.fcache[fIdx]
		if m.ocache[fc.obj.ID].fnIdx == fIdx {
			pairs = append(pairs, matchedPair{fIdx: fIdx, obj: fc.obj, score: fc.score})
		}
	}
	m.pairs = pairs
	if len(pairs) == 0 {
		return fmt.Errorf("core: no stable pair found in generic loop %d", m.c.Loops)
	}
	slices.SortFunc(pairs, func(a, b matchedPair) int {
		return prefs.PairKey{Score: a.score, ObjSum: a.obj.Sum, FuncID: m.gps[a.fIdx].ID, ObjID: int(a.obj.ID)}.
			Compare(prefs.PairKey{Score: b.score, ObjSum: b.obj.Sum, FuncID: m.gps[b.fIdx].ID, ObjID: int(b.obj.ID)})
	})
	if !m.multiPair {
		pairs = pairs[:1]
	}

	removedObjs := m.removed[:0]
	for _, p := range pairs {
		m.queue.push(Pair{FuncID: m.gps[p.fIdx].ID, ObjID: p.obj.ID, Score: p.score})
		m.c.PairsEmitted++
		m.matchedGen[p.fIdx] = m.gen
		m.alive[p.fIdx] = false
		m.live--
		m.fcache[p.fIdx] = fnCache{}
		if m.resid.take(p.obj.ID) {
			removedObjs = append(removedObjs, p.obj.ID)
			delete(m.ocache, p.obj.ID)
		}
	}
	m.removed = removedObjs

	added, err := m.maint.Remove(removedObjs)
	if err != nil {
		return err
	}
	if m.live == 0 {
		return nil
	}
	for _, o := range m.maint.Skyline() {
		oc, ok := m.ocache[o.ID]
		if ok && m.matchedGen[oc.fnIdx] != m.gen {
			continue
		}
		idx, score, okBest := m.bestPrefFor(o)
		if !okBest {
			return errors.New("core: preference set exhausted with objects remaining")
		}
		m.ocache[o.ID] = obCache{fnIdx: idx, score: score}
	}
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
			s := m.gps[fIdx].Pref.Score(o.Point)
			if prefs.BetterObj(s, o.Sum, int(o.ID), fc.score, fc.obj.Sum, int(fc.obj.ID)) {
				fc.obj, fc.score = o, s
			}
		}
		m.fcache[fIdx] = fc
	}
	return nil
}

// genericBF is the Brute Force baseline over monotone preferences: the
// branch-and-bound ranked search works unchanged because any monotone
// preference bounds its score over an MBR by the score of the top corner.
type genericBF struct {
	tree index.ObjectIndex
	gps  []GenericPreference
	c    *stats.Counters

	started bool
	alive   []bool
	cache   []Candidate
	has     []bool
	live    int
	resid   *residual
}

func newGenericBF(tree index.ObjectIndex, gps []GenericPreference, opts *Options, c *stats.Counters) *genericBF {
	m := &genericBF{
		tree:  tree,
		gps:   gps,
		c:     c,
		alive: make([]bool, len(gps)),
		cache: make([]Candidate, len(gps)),
		has:   make([]bool, len(gps)),
		live:  len(gps),
		resid: newResidual(opts.Capacities),
	}
	for i := range m.alive {
		m.alive[i] = true
	}
	return m
}

func (m *genericBF) Counters() *stats.Counters { return m.c }

func (m *genericBF) research(i int) error {
	res, ok, err := topk.Top1(m.tree, m.gps[i].Pref, m.c)
	if err != nil {
		return err
	}
	if !ok {
		m.cache[i], m.has[i] = Candidate{}, false
		return nil
	}
	m.cache[i] = Candidate{ObjID: res.ID, Point: res.Point, Sum: res.Point.Sum(), Score: res.Score}
	m.has[i] = true
	return nil
}

func (m *genericBF) Next() (Pair, bool, error) {
	if !m.started {
		for i := range m.gps {
			if err := m.research(i); err != nil {
				return Pair{}, false, err
			}
		}
		m.started = true
	}
	if m.live == 0 || m.tree.Len() == 0 {
		return Pair{}, false, nil
	}
	best := -1
	for i := range m.gps {
		if !m.alive[i] || !m.has[i] {
			continue
		}
		if best == -1 {
			best = i
			continue
		}
		a := prefs.PairKey{Score: m.cache[i].Score, ObjSum: m.cache[i].Sum, FuncID: m.gps[i].ID, ObjID: int(m.cache[i].ObjID)}
		b := prefs.PairKey{Score: m.cache[best].Score, ObjSum: m.cache[best].Sum, FuncID: m.gps[best].ID, ObjID: int(m.cache[best].ObjID)}
		if a.Better(b) {
			best = i
		}
	}
	if best == -1 {
		return Pair{}, false, nil
	}
	won := m.cache[best]
	m.alive[best] = false
	m.live--
	m.c.PairsEmitted++
	m.c.Loops++
	if m.resid.take(won.ObjID) {
		if err := m.tree.Delete(won.ObjID, won.Point); err != nil {
			return Pair{}, false, err
		}
		for i := range m.gps {
			if m.alive[i] && m.has[i] && m.cache[i].ObjID == won.ObjID {
				if err := m.research(i); err != nil {
					return Pair{}, false, err
				}
			}
		}
	}
	return Pair{FuncID: m.gps[best].ID, ObjID: won.ObjID, Score: won.Score}, true, nil
}
