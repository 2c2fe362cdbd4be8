package skyline

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"prefmatch/internal/index"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/index/paged"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// bruteSkyline computes the skyline of the live items by exhaustive pairwise
// dominance.
func bruteSkyline(items []index.Item, excluded map[index.ObjID]bool) []index.ObjID {
	var out []index.ObjID
	for i := range items {
		if excluded[items[i].ID] {
			continue
		}
		dominated := false
		for j := range items {
			if i == j || excluded[items[j].ID] {
				continue
			}
			if items[j].Point.Dominates(items[i].Point) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, items[i].ID)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func skyIDs(m *Maintainer) []index.ObjID {
	ids := make([]index.ObjID, 0, m.Size())
	for _, s := range m.Skyline() {
		ids = append(ids, s.ID)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func equalIDs(a, b []index.ObjID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildTree(t *testing.T, rng *rand.Rand, n, d, grid int) (paged.Index, []index.Item, *stats.Counters) {
	t.Helper()
	items := make([]index.Item, n)
	for i := range items {
		p := make(vec.Point, d)
		for j := range p {
			if grid > 0 {
				p[j] = float64(rng.Intn(grid)) / float64(grid-1)
			} else {
				p[j] = rng.Float64()
			}
		}
		items[i] = index.Item{ID: index.ObjID(i), Point: p}
	}
	c := &stats.Counters{}
	tr, err := paged.New(d, &paged.Options{PageSize: 512, Counters: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	return tr, items, c
}

func TestComputeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, d, grid int }{
		{50, 2, 0}, {500, 2, 0}, {500, 3, 0}, {500, 4, 0},
		{300, 2, 5}, {300, 3, 4}, // coarse grids: many ties and duplicates
		{1, 2, 0}, {2, 2, 0},
	} {
		tr, items, c := buildTree(t, rng, tc.n, tc.d, tc.grid)
		m := New(tr, MaintainPlist, c)
		if err := m.Compute(); err != nil {
			t.Fatal(err)
		}
		want := bruteSkyline(items, nil)
		if got := skyIDs(m); !equalIDs(got, want) {
			t.Fatalf("n=%d d=%d grid=%d: skyline %v, want %v", tc.n, tc.d, tc.grid, got, want)
		}
	}
}

func TestComputeOnEmptyTree(t *testing.T) {
	tr, err := paged.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(tr, MaintainPlist, nil)
	if err := m.Compute(); err != nil {
		t.Fatal(err)
	}
	if m.Size() != 0 {
		t.Fatalf("skyline of empty set has %d members", m.Size())
	}
}

func TestRemoveBeforeComputeFails(t *testing.T) {
	tr, err := paged.New(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := New(tr, MaintainPlist, nil)
	if _, err := m.Remove([]index.ObjID{1}); err == nil {
		t.Fatal("Remove before Compute should fail")
	}
}

func TestRemoveNonMemberFails(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr, items, c := buildTree(t, rng, 100, 2, 0)
	m := New(tr, MaintainPlist, c)
	if err := m.Compute(); err != nil {
		t.Fatal(err)
	}
	// Find a non-skyline id.
	member := map[index.ObjID]bool{}
	for _, s := range m.Skyline() {
		member[s.ID] = true
	}
	for _, it := range items {
		if !member[it.ID] {
			if _, err := m.Remove([]index.ObjID{it.ID}); err == nil {
				t.Fatal("removing a non-member should fail")
			}
			return
		}
	}
	t.Skip("all objects on skyline; cannot exercise non-member removal")
}

// The core maintenance property: repeatedly removing skyline objects (in
// varied patterns) keeps the maintained skyline identical to the brute-force
// skyline of the surviving objects — in every mode.
func TestRemovalSequencesMatchBruteForce(t *testing.T) {
	for _, mode := range []Mode{MaintainPlist, MaintainRetraverse, MaintainRecompute} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			for _, tc := range []struct{ n, d, grid int }{
				{400, 2, 0}, {400, 3, 0}, {250, 4, 0}, {300, 3, 4},
			} {
				tr, items, c := buildTree(t, rng, tc.n, tc.d, tc.grid)
				m := New(tr, mode, c)
				if err := m.Compute(); err != nil {
					t.Fatal(err)
				}
				excluded := map[index.ObjID]bool{}
				step := 0
				for m.Size() > 0 && step < 60 {
					// Remove 1-3 skyline members per step (multi-pair loops
					// remove several at once).
					k := 1 + rng.Intn(3)
					if k > m.Size() {
						k = m.Size()
					}
					perm := rng.Perm(m.Size())[:k]
					ids := make([]index.ObjID, 0, k)
					for _, idx := range perm {
						ids = append(ids, m.Skyline()[idx].ID)
					}
					for _, id := range ids {
						excluded[id] = true
					}
					added, err := m.Remove(ids)
					if err != nil {
						t.Fatalf("mode %v step %d: %v", mode, step, err)
					}
					want := bruteSkyline(items, excluded)
					if got := skyIDs(m); !equalIDs(got, want) {
						t.Fatalf("mode %v n=%d d=%d step %d: skyline %v, want %v", mode, tc.n, tc.d, step, got, want)
					}
					// Added objects must actually be new members.
					for _, a := range added {
						if excluded[a.ID] {
							t.Fatalf("mode %v: added object %d is excluded", mode, a.ID)
						}
					}
					step++
				}
			}
		})
	}
}

// Newly promoted objects returned by Remove must be exactly the difference
// between the skylines before and after.
func TestRemoveReturnsExactlyTheNewMembers(t *testing.T) {
	for _, mode := range []Mode{MaintainPlist, MaintainRetraverse, MaintainRecompute} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(4))
			tr, _, c := buildTree(t, rng, 600, 3, 0)
			m := New(tr, mode, c)
			if err := m.Compute(); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 40 && m.Size() > 0; step++ {
				before := map[index.ObjID]bool{}
				for _, s := range m.Skyline() {
					before[s.ID] = true
				}
				victim := m.Skyline()[rng.Intn(m.Size())].ID
				added, err := m.Remove([]index.ObjID{victim})
				if err != nil {
					t.Fatal(err)
				}
				addedIDs := map[index.ObjID]bool{}
				for _, a := range added {
					addedIDs[a.ID] = true
				}
				for _, s := range m.Skyline() {
					isNew := !before[s.ID]
					if isNew != addedIDs[s.ID] {
						t.Fatalf("mode %v step %d: object %d new=%v reported=%v", mode, step, s.ID, isNew, addedIDs[s.ID])
					}
				}
				if len(addedIDs) != len(added) {
					t.Fatalf("mode %v: duplicate entries in added", mode)
				}
			}
		})
	}
}

// plist exclusivity: after compute and after every update, each pruned entry
// is owned by exactly one skyline object, and the owner dominates it.
func TestPlistOwnershipInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr, _, c := buildTree(t, rng, 800, 3, 0)
	m := New(tr, MaintainPlist, c)
	if err := m.Compute(); err != nil {
		t.Fatal(err)
	}
	check := func(context string) {
		seenPages := map[int32]string{}
		seenObjs := map[index.ObjID]string{}
		for _, s := range m.Skyline() {
			for _, e := range s.plist {
				if !s.Point.Dominates(e.best) {
					t.Fatalf("%s: owner %d does not dominate plist entry", context, s.ID)
				}
				if e.isObj {
					if prev, dup := seenObjs[e.id]; dup {
						t.Fatalf("%s: object %d in plists of both %s and %d", context, e.id, prev, s.ID)
					}
					seenObjs[e.id] = fmt.Sprint(s.ID)
				} else {
					if prev, dup := seenPages[int32(e.page)]; dup {
						t.Fatalf("%s: page %d in plists of both %s and %d", context, e.page, prev, s.ID)
					}
					seenPages[int32(e.page)] = fmt.Sprint(s.ID)
				}
			}
		}
	}
	check("after compute")
	for step := 0; step < 30 && m.Size() > 0; step++ {
		victim := m.Skyline()[rng.Intn(m.Size())].ID
		if _, err := m.Remove([]index.ObjID{victim}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("after removal %d", step))
	}
}

// Removing every object one by one must drain the skyline to empty exactly
// when all objects are gone, in every mode.
func TestDrainEntireDataset(t *testing.T) {
	for _, mode := range []Mode{MaintainPlist, MaintainRetraverse, MaintainRecompute} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(6))
			tr, items, c := buildTree(t, rng, 150, 2, 0)
			m := New(tr, mode, c)
			if err := m.Compute(); err != nil {
				t.Fatal(err)
			}
			removedCount := 0
			for m.Size() > 0 {
				victim := m.Skyline()[rng.Intn(m.Size())].ID
				if _, err := m.Remove([]index.ObjID{victim}); err != nil {
					t.Fatal(err)
				}
				removedCount++
				if removedCount > len(items) {
					t.Fatal("removed more objects than exist")
				}
			}
			if removedCount != len(items) {
				t.Fatalf("drained after %d removals, want %d", removedCount, len(items))
			}
		})
	}
}

// The headline claim of § IV-B: plist-based maintenance does far less I/O
// than re-traversal, which does less than recomputation.
func TestMaintenanceIOOrdering(t *testing.T) {
	run := func(mode Mode) int64 {
		rng := rand.New(rand.NewSource(7))
		items := make([]index.Item, 20000)
		for i := range items {
			items[i] = index.Item{ID: index.ObjID(i), Point: vec.Point{rng.Float64(), rng.Float64(), rng.Float64()}}
		}
		c := &stats.Counters{}
		tr, err := paged.New(3, &paged.Options{Counters: c})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		if err := tr.DropBuffer(); err != nil {
			t.Fatal(err)
		}
		c.Reset()
		m := New(tr, mode, c)
		if err := m.Compute(); err != nil {
			t.Fatal(err)
		}
		computeIO := c.IOAccesses()
		for step := 0; step < 100 && m.Size() > 0; step++ {
			// Pick the minimum-ID member: mode-independent, since all modes
			// maintain the same skyline set.
			victim := m.Skyline()[0].ID
			for _, s := range m.Skyline() {
				if s.ID < victim {
					victim = s.ID
				}
			}
			if _, err := m.Remove([]index.ObjID{victim}); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("mode %-10s: compute io=%d total io=%d", mode, computeIO, c.IOAccesses())
		return c.IOAccesses()
	}
	plist := run(MaintainPlist)
	retraverse := run(MaintainRetraverse)
	recompute := run(MaintainRecompute)
	if !(plist < retraverse && retraverse <= recompute) {
		t.Fatalf("maintenance I/O ordering violated: plist=%d retraverse=%d recompute=%d", plist, retraverse, recompute)
	}
	if plist*5 > recompute {
		t.Fatalf("plist maintenance should be far cheaper: plist=%d recompute=%d", plist, recompute)
	}
}

func TestSkylineSizeCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr, _, c := buildTree(t, rng, 500, 3, 0)
	m := New(tr, MaintainPlist, c)
	if err := m.Compute(); err != nil {
		t.Fatal(err)
	}
	if c.SkylineMaxSize < int64(m.Size()) {
		t.Fatalf("SkylineMaxSize %d < current size %d", c.SkylineMaxSize, m.Size())
	}
	if c.SkylineUpdates != 0 {
		t.Fatal("no updates should be counted yet")
	}
	if _, err := m.Remove([]index.ObjID{m.Skyline()[0].ID}); err != nil {
		t.Fatal(err)
	}
	if c.SkylineUpdates != 1 {
		t.Fatalf("SkylineUpdates = %d, want 1", c.SkylineUpdates)
	}
}

func TestModeString(t *testing.T) {
	if MaintainPlist.String() != "plist" || MaintainRetraverse.String() != "retraverse" || MaintainRecompute.String() != "recompute" {
		t.Fatal("mode names wrong")
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

// Skyline membership must imply: no live object dominates a member, and
// every live non-member is dominated by some member (tested via the
// brute-force comparison above); here we additionally verify the "top-1 of
// any monotone function is on the skyline" observation of § III-B.
func TestTop1OfMonotoneFunctionsOnSkyline(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr, items, c := buildTree(t, rng, 700, 3, 6)
	m := New(tr, MaintainPlist, c)
	if err := m.Compute(); err != nil {
		t.Fatal(err)
	}
	member := map[index.ObjID]bool{}
	for _, s := range m.Skyline() {
		member[s.ID] = true
	}
	for trial := 0; trial < 200; trial++ {
		w := make([]float64, 3)
		for i := range w {
			w[i] = rng.Float64()
		}
		w[rng.Intn(3)] += 0.01
		// Pick the best object under the dominance-consistent order
		// (score, then coordinate sum, then ID).
		best := 0
		bestScore := func(it index.Item) float64 {
			s := 0.0
			for i, x := range it.Point {
				s += w[i] * x
			}
			return s
		}
		for i := 1; i < len(items); i++ {
			si, sb := bestScore(items[i]), bestScore(items[best])
			if si > sb || (si == sb && items[i].Point.Sum() > items[best].Point.Sum()) {
				best = i
			}
		}
		if !member[items[best].ID] {
			t.Fatalf("top-1 object %d of trial %d is not on the skyline", items[best].ID, trial)
		}
	}
}

// The slab scan must be the member-by-member Dominates loop it replaced:
// over a plist-mode Compute and a sequence of removals it must keep the same
// skyline in the same order, the same plist lengths and the same counters,
// DominanceChecks included — on the generic expansion path (paged) and the
// flat one (mem), with uniform and tie-heavy coordinates.
func TestSlabScanMatchesReferenceLoop(t *testing.T) {
	for _, tc := range []struct {
		backend    string
		n, d, grid int
	}{
		{"paged", 600, 3, 0}, {"mem", 600, 3, 0}, {"paged", 500, 3, 4}, {"mem", 500, 4, 3}, {"mem", 800, 2, 0},
	} {
		run := func(ref bool) []string {
			rng := rand.New(rand.NewSource(11))
			var tr index.ObjectIndex
			tr, items, c := buildTree(t, rng, tc.n, tc.d, tc.grid)
			if tc.backend == "mem" {
				var err error
				if tr, err = mem.Build(tc.d, items, &mem.Options{PageSize: 512, Counters: c}); err != nil {
					t.Fatal(err)
				}
				c.Reset()
			}
			m := New(tr, MaintainPlist, c)
			if ref {
				m.refDominator = func(p vec.Point) *Object {
					for _, s := range m.sky {
						m.c.DominanceChecks++
						if s.Point.Dominates(p) {
							return s
						}
					}
					return nil
				}
			}
			var trace []string
			record := func(step int) {
				var b strings.Builder
				for _, s := range m.Skyline() {
					fmt.Fprintf(&b, "%d:%d ", s.ID, s.PlistLen())
				}
				trace = append(trace, fmt.Sprintf("step %d: %s| %+v", step, b.String(), *c))
			}
			if err := m.Compute(); err != nil {
				t.Fatal(err)
			}
			record(0)
			for step := 1; step <= 40 && m.Size() > 0; step++ {
				k := min(1+rng.Intn(3), m.Size())
				ids := make([]index.ObjID, 0, k)
				for _, idx := range rng.Perm(m.Size())[:k] {
					ids = append(ids, m.Skyline()[idx].ID)
				}
				if _, err := m.Remove(ids); err != nil {
					t.Fatal(err)
				}
				record(step)
			}
			return trace
		}
		want, got := run(true), run(false)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d steps with the slab scan, %d with the loop", tc, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v: slab scan diverges from the loop\nslab: %s\nloop: %s", tc, got[i], want[i])
			}
		}
	}
}
