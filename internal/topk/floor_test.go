package topk

import (
	"math/rand"
	"testing"

	"prefmatch/internal/stats"
)

// TestFloorKeepsTopKBitIdentical pins the SetFloor contract: with a valid
// floor — the exact k-th score, which is the tightest bound a caller may ever
// use — the floored walk returns the same k results as the unfloored one,
// while the frontier does no more heap work.
func TestFloorKeepsTopKBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBatchSearcher()
	for _, d := range []int{2, 4} {
		tr, _ := buildTree(t, rng, 600, d)
		for trial := 0; trial < 20; trial++ {
			f := randFunc(rng, trial, d)
			for _, k := range []int{1, 5, 17} {
				var base stats.Counters
				want, err := Search(tr, f, k, &base)
				if err != nil {
					t.Fatal(err)
				}
				var c stats.Counters
				b.ResetTopK(tr, f, k, &c)
				b.SetFloor(0, want[len(want)-1].Score)
				if err := b.Run(); err != nil {
					t.Fatal(err)
				}
				got := b.AppendResults(0, nil)
				if len(got) != len(want) {
					t.Fatalf("d=%d trial=%d k=%d: floored search returned %d results, want %d", d, trial, k, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Score != want[i].Score || !got[i].Point.Equal(want[i].Point) {
						t.Fatalf("d=%d trial=%d k=%d: result %d differs: %+v vs %+v", d, trial, k, i, got[i], want[i])
					}
				}
				if c.HeapOps > base.HeapOps {
					t.Fatalf("floored search did more heap work (%d) than unfloored (%d)", c.HeapOps, base.HeapOps)
				}
				if c.NodesVisited > base.NodesVisited {
					t.Fatalf("floored search read more nodes (%d) than unfloored (%d)", c.NodesVisited, base.NodesVisited)
				}
			}
		}
	}
}

// TestFloorDisarmedByReset pins that a reset clears a previously set floor,
// so pooled searchers never inherit one.
func TestFloorDisarmedByReset(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, items := buildTree(t, rng, 100, 2)
	f := randFunc(rng, 0, 2)
	b := NewBatchSearcher()
	b.ResetTopK(tr, f, len(items), nil)
	b.SetFloor(0, 1e308) // absurd floor: would suppress everything
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if n := b.Len(0); n != 0 {
		t.Fatalf("absurd floor should suppress every object, kept %d", n)
	}
	b.ResetTopK(tr, f, len(items), nil)
	if err := b.Run(); err != nil {
		t.Fatal(err)
	}
	if n := b.Len(0); n != len(items) {
		t.Fatalf("after a reset the floor must be disarmed: saw %d of %d objects", n, len(items))
	}
}
