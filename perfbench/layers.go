package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"prefmatch"
	"prefmatch/internal/core"
	"prefmatch/internal/index"
	"prefmatch/internal/index/dynamic"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/obs"
	"prefmatch/internal/prefs"
	"prefmatch/internal/rescache"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/ta"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// Sizes of the per-layer probes.
const (
	probeQueries  = 4096 // workload weight vectors the probes cycle through
	probeWaves    = 3    // matching waves timed on a raw snapshot
	retainedRows  = 28   // rows a session re-scores: 2k+8 for k = 10
	replayUpdates = 3*4096 + 1000
	replayReadGap = 64 // dynamic replay: one read per this many updates
)

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink float64

// scrape parses the server's Prometheus exposition into series → value.
func scrape(s *prefmatch.Server) (map[string]float64, error) {
	var b strings.Builder
	if err := s.WriteMetrics(&b); err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, nil
}

func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}

// repeat runs fn until budget has passed (at least once) and returns the
// number of calls and their total time.
func repeat(budget time.Duration, fn func()) (int, time.Duration) {
	start := time.Now()
	n := 0
	for {
		fn()
		n++
		if el := time.Since(start); el >= budget {
			return n, el
		}
	}
}

func perCall(n int, d time.Duration, unit time.Duration) float64 {
	return float64(d) / float64(n) / float64(unit)
}

// measureLayers times calls into each layer's own public functions on the
// workload's inputs, after the traced window (whose server-metric deltas
// before/after it also reads). Every call it times is recorded as a span.
func measureLayers(inst instance, in *inputs, win window, before, after map[string]float64, paged prefmatch.Stats, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	budget := in.cfg.probe
	srv := inst.srv()

	// Raw mem index over the objects the server now holds.
	objs := inst.model()
	items := make([]index.Item, len(objs))
	for i, o := range objs {
		items[i] = index.Item{ID: index.ObjID(o.ID), Point: vec.Point(o.Values)}
	}
	var raw *mem.Index
	var builds []float64
	for i := 0; i < 3; i++ {
		var err error
		d := tr.timed("mem.Build", func() { raw, err = mem.Build(dim, items, nil) })
		if err != nil {
			return nil, err
		}
		builds = append(builds, d.Seconds())
	}
	m["index.mem.build_s"] = median(builds)
	m["index.mem.nodes"] = float64(raw.NumPages())
	snap := raw.Snapshot()

	ws := inst.weights(probeQueries)
	fns := make([]prefs.Function, len(ws))
	for i, w := range ws {
		f, err := prefs.NewFunction(i, w)
		if err != nil {
			return nil, err
		}
		fns[i] = f
	}

	// server: stage means over the traced window. Match does not time a
	// validate stage, so a stage the window never observed is taken from
	// the Server.TopK requests of the overhead probe below.
	stageMean := func(b, a map[string]float64, st string) (float64, float64) {
		n := delta(b, a, `pm_request_stage_seconds_count{stage="`+st+`"}`)
		return ratio(delta(b, a, `pm_request_stage_seconds_sum{stage="`+st+`"}`), n) * 1e6, n
	}

	// server.overhead_us and topk.searcher_us: Server.TopK and SearchAppend
	// alternate over the same weights.
	var srvT, rawT time.Duration
	var c stats.Counters
	dst := make([]topk.Result, 0, retainedRows)
	n := 0
	for start := time.Now(); n < 64 || time.Since(start) < 2*budget; n++ {
		i := n % len(ws)
		t0 := time.Now()
		if _, err := srv.TopK(prefmatch.Query{ID: i, Weights: ws[i]}, topK); err != nil {
			return nil, err
		}
		t1 := time.Now()
		var err error
		dst, err = topk.SearchAppend(dst[:0], snap, &fns[i], topK, &c)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		tr.begin()
		tr.child("server.TopK", t0, t1)
		tr.child("topk.SearchAppend", t1, t2)
		tr.end("probe.topk", t0, t2)
		srvT += t1.Sub(t0)
		rawT += t2.Sub(t1)
	}
	probed, err := scrape(srv)
	if err != nil {
		return nil, err
	}
	for _, st := range []string{"validate", "pin", "traverse", "merge"} {
		v, cnt := stageMean(before, after, st)
		if cnt == 0 {
			v, _ = stageMean(after, probed, st)
		}
		m["server.stage."+st+"_us"] = v
	}
	m["topk.searcher_us"] = perCall(n, rawT, time.Microsecond)
	m["server.overhead_us"] = perCall(n, srvT, time.Microsecond) - m["topk.searcher_us"]
	m["topk.nodes_per_query"] = float64(c.NodesVisited) / float64(n)
	m["topk.score_evals_per_query"] = float64(c.ScoreEvals) / float64(n)
	m["topk.heap_ops_per_query"] = float64(c.HeapOps) / float64(n)

	// server.allocs_per_op, server.bytes_per_op: the workload's own
	// operation replayed by one client, untraced.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops, _ := repeat(budget, func() {
		if _, _, err2 := inst.op(0, nil); err2 != nil && err == nil {
			err = err2
		}
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("allocation replay: %w", err)
	}
	m["server.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	m["server.bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops)

	// topk.batch_q1_us: the batched searcher with one function.
	bs := topk.NewBatchSearcher()
	one := make([]prefs.Preference, 1)
	ks := []int{topK}
	i := 0
	n, d := repeat(budget, func() {
		one[0] = &fns[i%len(fns)]
		i++
		tr.timed("topk.BatchSearcher", func() {
			bs.Reset(snap, one, ks, &c)
			if err2 := bs.Run(); err2 != nil && err == nil {
				err = err2
			}
			dst = bs.AppendResults(0, dst[:0])
		})
	})
	if err != nil {
		return nil, err
	}
	m["topk.batch_q1_us"] = perCall(n, d, time.Microsecond)

	if err := measureVec(m, raw, snap, fns, budget, tr); err != nil {
		return nil, err
	}

	// index.mem: snapshot and node reads.
	n, d = repeat(budget, func() {
		tr.timed("mem.Snapshot", func() {
			for j := 0; j < 1000; j++ {
				snap = raw.Snapshot()
			}
		})
	})
	m["index.mem.snapshot_ns"] = perCall(n*1000, d, time.Nanosecond)
	ids := nodeIDs(raw)
	n, d = repeat(budget, func() {
		tr.timed("mem.ReadNode", func() {
			for _, id := range ids {
				nd, err2 := raw.ReadNode(id)
				if err2 != nil && err == nil {
					err = err2
				}
				sink += float64(nd.Len())
			}
		})
	})
	if err != nil {
		return nil, err
	}
	m["index.mem.readnode_ns"] = perCall(n*len(ids), d, time.Nanosecond)

	if err := measureDynamic(m, in, items, fns, tr); err != nil {
		return nil, err
	}
	if err := measureSessions(m, srv, snap, fns, ws, budget, before, after, tr); err != nil {
		return nil, err
	}
	if err := measureWaves(m, in, snap, ws, tr); err != nil {
		return nil, err
	}

	m["index.paged.page_reads_per_wave"] = float64(paged.PageReads)
	m["index.paged.buffer_hit_ratio"] = ratio(float64(paged.BufferHits), float64(paged.BufferHits+paged.PageReads))
	m["trace.overhead_ratio"] = win.phaseRate(1) / win.phaseRate(0)
	return m, nil
}

// nodeIDs lists every node of ix, breadth first.
func nodeIDs(ix index.ObjectIndex) []index.NodeID {
	ids := []index.NodeID{ix.RootPage()}
	for i := 0; i < len(ids); i++ {
		nd, err := ix.ReadNode(ids[i])
		if err != nil || nd.Leaf() {
			continue
		}
		for j := 0; j < nd.Len(); j++ {
			ids = append(ids, nd.ChildPage(j))
		}
	}
	return ids
}

// measureVec times the scoring kernels over the index's own slabs: DotSum
// per leaf point and the per-box upper bound (vec.Dot on the box's high
// corner) as the ranked searcher computes them, DotBatch over the rows a
// session re-scores, and DeltaBound over the root box.
func measureVec(m map[string]float64, raw *mem.Index, snap index.ObjectIndex, fns []prefs.Function, budget time.Duration, tr *tracer) error {
	var leaves, highs [][]float64
	points, boxes := 0, 0
	for _, id := range nodeIDs(raw) {
		nd, err := raw.ReadNode(id)
		if err != nil {
			return err
		}
		if nd.Leaf() {
			_, xs := nd.(index.FlatLeaf).FlatItems()
			leaves = append(leaves, xs)
			points += len(xs) / dim
		} else {
			_, hi := nd.(index.FlatInternal).FlatRects()
			highs = append(highs, hi)
			boxes += len(hi) / dim
		}
	}
	i := 0
	n, d := repeat(budget, func() {
		w := fns[i%len(fns)].Weights
		i++
		tr.timed("vec.DotSum", func() {
			for _, xs := range leaves {
				for j := 0; j+dim <= len(xs); j += dim {
					dot, sum := vec.DotSum(w, xs[j:j+dim])
					sink += dot + sum
				}
			}
		})
	})
	m["vec.dotsum_ns_per_point"] = perCall(n*points, d, time.Nanosecond)
	n, d = repeat(budget, func() {
		w := fns[i%len(fns)].Weights
		i++
		tr.timed("vec.Dot(mbr)", func() {
			for _, hi := range highs {
				for j := 0; j+dim <= len(hi); j += dim {
					sink += vec.Dot(w, hi[j:j+dim])
				}
			}
		})
	})
	m["vec.mbrbounds_ns_per_box"] = perCall(n*boxes, d, time.Nanosecond)

	res, err := topk.Search(snap, &fns[0], retainedRows, nil)
	if err != nil {
		return err
	}
	rows := make([]float64, 0, retainedRows*dim)
	for _, r := range res {
		rows = append(rows, r.Point...)
	}
	out := make([]float64, len(res))
	const reps = 1000
	n, d = repeat(budget, func() {
		w := fns[i%len(fns)].Weights
		i++
		tr.timed("vec.DotBatch", func() {
			for j := 0; j < reps; j++ {
				vec.DotBatch(w, 1, dim, rows, out)
			}
		})
		sink += out[0]
	})
	m["vec.dotbatch_ns_per_row"] = perCall(n*reps*len(res), d, time.Nanosecond)

	root, err := raw.ReadNode(raw.RootPage())
	if err != nil {
		return err
	}
	rlo, rhi := root.(index.FlatInternal).FlatRects()
	box := vec.MBROfFlatRects(rlo, rhi, dim)
	n, d = repeat(budget, func() {
		a, b := fns[i%len(fns)].Weights, fns[(i+1)%len(fns)].Weights
		i++
		tr.timed("vec.DeltaBound", func() {
			for j := 0; j < reps; j++ {
				sink += vec.DeltaBound(a, b, box.Lo, box.Hi)
			}
		})
	})
	m["vec.deltabound_ns"] = perCall(n*reps, d, time.Nanosecond)
	return nil
}

// measureDynamic replays live_writes-style updates straight into a dynamic
// index with the default merge threshold, reading through a refreshed
// snapshot every replayReadGap updates, and waits for the last merge.
func measureDynamic(m map[string]float64, in *inputs, items []index.Item, fns []prefs.Function, tr *tracer) error {
	pts := make([]vec.Point, len(items))
	for i, it := range items {
		pts[i] = it.Point.Clone()
	}
	dyn, err := dynamic.Build(dim, items, &dynamic.Options{})
	if err != nil {
		return err
	}
	mm := &obs.MergeMetrics{}
	dyn.SetMergeMetrics(mm)
	snap := dyn.Snapshot().(*dynamic.Snapshot)
	var c stats.Counters
	snap.SetCounters(&c)
	rng := stream(in.seed, "dynamic/replay", 0)
	dst := make([]topk.Result, 0, topK)
	var upd time.Duration
	reads, deltaSum := 0, 0
	for u := 0; u < replayUpdates; u++ {
		id := rng.Intn(len(pts))
		p := pts[id].Clone()
		p[rng.Intn(dim)] = rng.Float64()
		pts[id] = p
		upd += tr.timed("dynamic.Update", func() { err = dyn.Update(index.ObjID(items[id].ID), p) })
		if err != nil {
			return err
		}
		if u%replayReadGap == 0 {
			snap.Refresh()
			deltaSum += dyn.DeltaSize()
			tr.timed("topk.SearchAppend(dynamic)", func() {
				dst, err = topk.SearchAppend(dst[:0], snap, &fns[reads%len(fns)], topK, &c)
			})
			if err != nil {
				return err
			}
			reads++
		}
	}
	if err := dyn.Shutdown(time.Minute); err != nil {
		return err
	}
	m["index.dynamic.update_us"] = perCall(replayUpdates, upd, time.Microsecond)
	m["index.dynamic.merges"] = float64(dyn.MergesCompleted())
	m["index.dynamic.merge_s"] = mm.Duration.Mean() / 1e9
	m["index.dynamic.merge_pause_s"] = mm.Pause.Mean() / 1e9
	m["index.dynamic.delta_nodes_per_read"] = float64(c.DeltaNodesVisited) / float64(reads)
	m["index.dynamic.delta_size_mean"] = float64(deltaSum) / float64(reads)
	return nil
}

// measureSessions reads the result cache's accounting over the traced
// window and times the cache and Nudge directly.
func measureSessions(m map[string]float64, srv *prefmatch.Server, snap index.ObjectIndex, fns []prefs.Function, ws [][]float64, budget time.Duration, before, after map[string]float64, tr *tracer) error {
	hits := delta(before, after, "pm_rescache_hits_total")
	requal := delta(before, after, "pm_rescache_requalified_total")
	walks := delta(before, after, "pm_rescache_fallbacks_total")
	served := hits + requal + walks
	m["rescache.hit_ratio"] = ratio(hits, served)
	m["rescache.requal_ratio"] = ratio(requal, served)
	m["rescache.walk_ratio"] = ratio(walks, served)
	m["rescache.evictions_per_op"] = ratio(delta(before, after, "pm_rescache_evictions_total"), served)
	m["session.walk_nodes_per_op"] = ratio(delta(before, after, `pm_work_total{counter="nodes_visited"}`), served)

	// rescache.get_ns / put_ns: a default-size cache primed with the run's
	// keys, each holding a real top-k payload.
	res, err := topk.Search(snap, &fns[0], topK, nil)
	if err != nil {
		return err
	}
	var v rescache.View
	for _, r := range res {
		v.IDs = append(v.IDs, r.ID)
		v.Coords = append(v.Coords, r.Point...)
		v.Scores = append(v.Scores, r.Score)
		v.Sums = append(v.Sums, r.Point.Sum())
	}
	v.Threshold = res[len(res)-1].Score
	v.RootLo, v.RootHi = make([]float64, dim), make([]float64, dim)
	for j := range v.RootHi {
		v.RootHi[j] = 1
	}
	rc := rescache.New(0)
	var got rescache.View
	puts, gets := 0, 0
	var putT, getT time.Duration
	for start := time.Now(); time.Since(start) < budget; {
		putT += tr.timed("rescache.Put", func() {
			for _, f := range fns {
				rc.Put(f.Weights, topK, 0, &v)
			}
		})
		puts += len(fns)
		getT += tr.timed("rescache.Get", func() {
			for _, f := range fns {
				if rc.Get(f.Weights, topK, 0, &got) {
					sink++
				}
			}
		})
		gets += len(fns)
	}
	m["rescache.put_ns"] = perCall(puts, putT, time.Nanosecond)
	m["rescache.get_ns"] = perCall(gets, getT, time.Nanosecond)

	sess, err := srv.OpenSession(prefmatch.Query{ID: -1, Weights: ws[0]})
	if err != nil {
		return err
	}
	defer sess.Close()
	i := 0
	const reps = 100
	n, d := repeat(budget, func() {
		tr.timed("session.Nudge", func() {
			for j := 0; j < reps; j++ {
				if e := sess.Nudge(ws[i%len(ws)]); e != nil && err == nil {
					err = e
				}
				i++
			}
		})
	})
	if err != nil {
		return err
	}
	m["session.nudge_ns"] = perCall(n*reps, d, time.Nanosecond)
	return nil
}

// measureWaves runs SB waves of the workload's weights on a raw snapshot
// (core, skyline and ta together), then the skyline computation and the TA
// lists on their own.
func measureWaves(m map[string]float64, in *inputs, snap index.ObjectIndex, ws [][]float64, tr *tracer) error {
	size := in.cfg.waveSize
	rng := rand.New(rand.NewSource(streamSeed(in.seed, "waves", 0)))
	var c stats.Counters
	snap.SetCounters(&c)
	var waveT, listT, top1T time.Duration
	top1s := 0
	for w := 0; w < probeWaves; w++ {
		fns := make([]prefs.Function, size)
		for i := range fns {
			f, err := prefs.NewFunction(i, ws[rng.Intn(len(ws))])
			if err != nil {
				return err
			}
			fns[i] = f
		}
		var err error
		waveT += tr.timed("core.Match(SB)", func() {
			_, err = core.Match(snap, fns, &core.Options{Algorithm: core.AlgSB})
		})
		if err != nil {
			return err
		}
		var lists *ta.Lists
		var lc stats.Counters
		listT += tr.timed("ta.NewLists", func() { lists, err = ta.NewLists(fns, &lc) })
		if err != nil {
			return err
		}
		sky := skyline.New(snap, skyline.MaintainPlist, &stats.Counters{})
		if err := sky.Compute(); err != nil {
			return err
		}
		top1T += tr.timed("ta.ReverseTop1", func() {
			for _, o := range sky.Skyline() {
				_, s, _ := lists.ReverseTop1(o.Point)
				sink += s
			}
		})
		top1s += sky.Size()
	}
	m["core.wave_us"] = perCall(probeWaves, waveT, time.Microsecond)
	m["core.loops_per_wave"] = float64(c.Loops) / probeWaves
	m["skyline.max"] = float64(c.SkylineMaxSize)
	m["skyline.dominance_checks_per_wave"] = float64(c.DominanceChecks) / probeWaves
	m["ta.list_accesses_per_wave"] = float64(c.TAListAccesses) / probeWaves
	m["ta.lists_build_us"] = perCall(probeWaves, listT, time.Microsecond)
	m["ta.reverse_top1_us"] = perCall(top1s, top1T, time.Microsecond)

	var computes []float64
	for i := 0; i < 3; i++ {
		sky := skyline.New(snap, skyline.MaintainPlist, &stats.Counters{})
		var err error
		d := tr.timed("skyline.Compute", func() { err = sky.Compute() })
		if err != nil {
			return err
		}
		computes = append(computes, d.Seconds()*1e6)
	}
	m["skyline.compute_us"] = median(computes)
	return nil
}
