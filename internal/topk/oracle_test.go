// Independent oracle for the k-bounded engine behind Search, SearchAppend
// and Top1: on every backend — memory snapshot, paged, sharded composite
// snapshot, and dynamic with a resident delta and tombstones — each answer
// must equal, bit for bit (IDs, order, score bits, points), both the
// streaming Searcher drained k deep and a brute-force sort of the live
// objects under Better. The streaming Searcher shares no search code with
// the engine (its frontier holds objects; the engine rejects them inline),
// and the brute force shares none with either.
package topk_test

import (
	"math"
	"sort"
	"testing"

	"prefmatch/internal/index"
	"prefmatch/internal/index/dynamic"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/index/sharded"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// opaque hides a preference's concrete type, so prefs.Linear fails and the
// engine takes its generic (interface-dispatch) path.
type opaque struct{ prefs.Preference }

// oracleBackend is one backend under test with the objects live in it.
type oracleBackend struct {
	name string
	ix   index.ObjectIndex
	live []index.Item
}

func oracleBackends(t *testing.T, items []index.Item, d int) []oracleBackend {
	t.Helper()
	memIx, err := mem.Build(d, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	pagedIx, err := paged.New(d, &paged.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := pagedIx.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	shardIx, err := sharded.Build(d, items, &sharded.Options{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}

	// Dynamic: a packed base of the first 80%, the rest inserted into the
	// delta tier, every 7th base object deleted (tombstoned) and every
	// 11th moved into the delta by an update. Merging is disabled, so the
	// snapshot reads base, delta and tombstones together.
	nBase := len(items) * 4 / 5
	dyn, err := dynamic.Build(d, items[:nBase], &dynamic.Options{MergeThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range items[nBase:] {
		if err := dyn.Insert(it.ID, it.Point); err != nil {
			t.Fatal(err)
		}
	}
	var live []index.Item
	for i, it := range items {
		switch {
		case i < nBase && i%7 == 0:
			if err := dyn.Delete(it.ID, it.Point); err != nil {
				t.Fatal(err)
			}
			continue
		case i < nBase && i%11 == 0:
			p := make(vec.Point, d)
			for j := range p {
				p[j] = it.Point[(j+1)%d] // a permutation keeps the coarse grid
			}
			if err := dyn.Update(it.ID, p); err != nil {
				t.Fatal(err)
			}
			it = index.Item{ID: it.ID, Point: p}
		}
		live = append(live, it)
	}
	if dyn.DeltaSize() == 0 {
		t.Fatal("dynamic backend has no resident delta")
	}
	return []oracleBackend{
		{"mem", memIx.Snapshot(), items},
		{"paged", pagedIx, items},
		{"sharded", shardIx.Snapshot(), items},
		{"dynamic", dyn.Snapshot(), live},
	}
}

// bruteTopK ranks every live object under p with Better and keeps k.
func bruteTopK(live []index.Item, p prefs.Preference, k int) []topk.Result {
	all := make([]topk.Result, len(live))
	for i, it := range live {
		all[i] = topk.Result{ID: it.ID, Point: it.Point, Score: p.Score(it.Point)}
	}
	sort.Slice(all, func(i, j int) bool { return topk.Better(all[i], all[j]) })
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// streamTopK drains a streaming Searcher k deep.
func streamTopK(t *testing.T, ix index.ObjectIndex, p prefs.Preference, k int) []topk.Result {
	t.Helper()
	s := topk.NewSearcher()
	s.Reset(ix, p, &stats.Counters{})
	var out []topk.Result
	for len(out) < k {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

func sameResults(t *testing.T, what string, got, want []topk.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) || !g.Point.Equal(w.Point) {
			t.Fatalf("%s: rank %d is %+v, want %+v", what, i, g, w)
		}
	}
}

func TestSearchMatchesStreamAndBruteForceAllBackends(t *testing.T) {
	const (
		n = 2500
		d = 4
	)
	items := equivItems(n, d, 31)
	var fns []prefs.Preference
	for i := 0; i < 12; i++ {
		w := make([]float64, d)
		for j := range w {
			// Coarse weights provoke exact score ties.
			w[j] = float64((i + 3*j) % 4)
		}
		w[i%d]++
		f := prefs.MustFunction(i, w)
		fns = append(fns, f)
		if i%3 == 0 {
			fns = append(fns, opaque{f})
		}
	}
	for _, be := range oracleBackends(t, items, d) {
		t.Run(be.name, func(t *testing.T) {
			for fi, p := range fns {
				for _, k := range []int{1, 3, 10, 40, len(be.live) + 5} {
					want := bruteTopK(be.live, p, k)
					sameResults(t, be.name+" stream vs brute force", streamTopK(t, be.ix, p, k), want)
					got, err := topk.SearchAppend(nil, be.ix, p, k, &stats.Counters{})
					if err != nil {
						t.Fatal(err)
					}
					sameResults(t, be.name+" SearchAppend", got, want)
					if fi == 0 {
						viaSearch, err := topk.Search(be.ix, p, k, nil)
						if err != nil {
							t.Fatal(err)
						}
						sameResults(t, be.name+" Search", viaSearch, want)
					}
				}
				r, ok, err := topk.Top1(be.ix, p, &stats.Counters{})
				if err != nil || !ok {
					t.Fatalf("Top1: ok=%v err=%v", ok, err)
				}
				sameResults(t, be.name+" Top1", []topk.Result{r}, bruteTopK(be.live, p, 1))
			}
		})
	}
}

// TestSearchNodeReadsMatchStream pins that the engine reads exactly the
// nodes the streaming search reads for the same k: both expand every node
// whose bound reaches the k-th score, in the same (bound, page) order — the
// property that keeps the paged backend's I/O figures unchanged by the
// engine choice.
func TestSearchNodeReadsMatchStream(t *testing.T) {
	const d = 3
	items := equivItems(3000, d, 32)
	tr, err := paged.New(d, &paged.Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f := prefs.MustFunction(i, []float64{float64(i%3 + 1), float64(i%5 + 1), float64(i%2 + 1)})
		for _, k := range []int{1, 7, 30} {
			var cs, cb stats.Counters
			s := topk.NewSearcher()
			s.Reset(tr, f, &cs)
			for j := 0; j < k; j++ {
				if _, _, err := s.Next(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := topk.Search(tr, f, k, &cb); err != nil {
				t.Fatal(err)
			}
			if cb.NodesVisited != cs.NodesVisited || cb.ScoreEvals != cs.ScoreEvals {
				t.Fatalf("fn %d k=%d: engine read %d nodes / %d evals, stream %d / %d",
					i, k, cb.NodesVisited, cb.ScoreEvals, cs.NodesVisited, cs.ScoreEvals)
			}
		}
	}
}
