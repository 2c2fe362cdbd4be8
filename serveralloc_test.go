// Tests for the batched serving path: Server.TopKMany must share traversals
// without changing a single answer, and its append form must reach the same
// zero-allocation steady state the internal search layer guarantees —
// the server-side extension of internal/topk's TestZeroAllocSteadyState.
package prefmatch_test

import (
	"context"
	"reflect"
	"testing"

	"prefmatch"
)

// TestServerTopKManyAppendEqualsTopKMany pins the append form to the
// slice-of-slices form on both server shapes: same assignments, same order,
// same boundaries, for batches smaller and larger than one chunk.
func TestServerTopKManyAppendEqualsTopKMany(t *testing.T) {
	const d = 4
	objs := serveObjects(1200, d, 81)
	for _, shards := range []int{0, 3} {
		srv, err := prefmatch.NewServer(objs, &prefmatch.Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for _, nq := range []int{1, 7, 150} { // 150 spans three chunks
			qs := serveQueries(nq, d, 82)
			for _, k := range []int{1, 3} {
				want, err := srv.TopKMany(qs, k, 1)
				if err != nil {
					t.Fatal(err)
				}
				dst, offsets, err := srv.TopKManyAppend(nil, nil, qs, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(offsets) != len(qs)+1 {
					t.Fatalf("shards=%d nq=%d k=%d: %d offsets for %d queries", shards, nq, k, len(offsets), len(qs))
				}
				if offsets[len(offsets)-1] != len(dst) {
					t.Fatalf("shards=%d nq=%d k=%d: final boundary %d, len(dst)=%d", shards, nq, k, offsets[len(offsets)-1], len(dst))
				}
				for i := range qs {
					got := dst[offsets[i]:offsets[i+1]]
					if len(got) == 0 && len(want[i]) == 0 {
						continue
					}
					if !reflect.DeepEqual([]prefmatch.Assignment(got), want[i]) {
						t.Fatalf("shards=%d nq=%d k=%d query %d: append form differs\ngot  %v\nwant %v",
							shards, nq, k, qs[i].ID, got, want[i])
					}
				}
			}
		}
		// k == 0 still validates and returns empty rankings.
		qs := serveQueries(5, d, 83)
		dst, offsets, err := srv.TopKManyAppend(nil, nil, qs, 0)
		if err != nil || len(dst) != 0 || len(offsets) != len(qs)+1 {
			t.Fatalf("shards=%d k=0: dst=%v offsets=%v err=%v", shards, dst, offsets, err)
		}
		bad := []prefmatch.Query{{ID: 9, Weights: []float64{0.5}}}
		if _, _, err := srv.TopKManyAppend(nil, nil, bad, 3); err == nil {
			t.Fatalf("shards=%d: dimension mismatch accepted", shards)
		}
		if _, _, err := srv.TopKManyAppend(nil, nil, qs, -1); err == nil {
			t.Fatalf("shards=%d: negative k accepted", shards)
		}
	}
}

// TestZeroAllocSteadyStateServerTopKMany extends the internal zero-alloc
// steady-state pin to the server's batched serving path: after warm-up, a
// TopKManyAppend batch over the memory backend — pooled snapshot plumbing,
// pooled batch searcher, arena-normalised query weights, caller-recycled
// result buffers — performs zero allocations per batch. TopKMany itself
// normalises into the same pooled arena and allocates only the slice of
// results, one flat buffer and one offsets slice per chunk (every query's
// ranking is carved out of its chunk's buffer), and the chunk fan-out's
// error slice and closure — five for this one-chunk batch, independent of
// tree size, k, or nodes visited.
func TestZeroAllocSteadyStateServerTopKMany(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented allocations, sync.Pool drops puts)")
	}
	const (
		d = 4
		k = 10
		q = 8
	)
	srv, err := prefmatch.NewServer(serveObjects(5000, d, 84), nil)
	if err != nil {
		t.Fatal(err)
	}
	qs := serveQueries(q, d, 85)

	var (
		dst      []prefmatch.Assignment
		offsets  []int
		batchErr error
	)
	appendBatch := func() {
		dst, offsets, batchErr = srv.TopKManyAppend(dst[:0], offsets[:0], qs, k)
	}
	for i := 0; i < 5; i++ {
		appendBatch()
		if batchErr != nil {
			t.Fatal(batchErr)
		}
	}
	if allocs := testing.AllocsPerRun(200, appendBatch); allocs != 0 {
		t.Fatalf("steady-state TopKManyAppend allocated %v times per batch, want 0", allocs)
	}
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if len(dst) != q*k {
		t.Fatalf("append batch returned %d assignments, want %d", len(dst), q*k)
	}

	var manyErr error
	manyBatch := func() {
		_, manyErr = srv.TopKMany(qs, k, 1)
	}
	for i := 0; i < 5; i++ {
		manyBatch()
		if manyErr != nil {
			t.Fatal(manyErr)
		}
	}
	allocs := testing.AllocsPerRun(200, manyBatch)
	if manyErr != nil {
		t.Fatal(manyErr)
	}
	if limit := float64(5); allocs > limit {
		t.Fatalf("steady-state TopKMany allocated %v times per batch, want <= %v (returned slices and fan-out only)", allocs, limit)
	}
}

// TestZeroAllocGatedContextTopKManyAppend extends the zero-allocation pin
// to the production-hardening layer: the same steady-state batch through
// TopKManyAppendContext, with the admission gate armed (MaxInFlight) and a
// live cancelable context driving the cooperative checkpoints. The gate's
// uncontended path and the per-node cancellation checks must both stay
// allocation-free, or deadlines would tax every request that never fires
// one.
func TestZeroAllocGatedContextTopKManyAppend(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented allocations, sync.Pool drops puts)")
	}
	const (
		d = 4
		k = 10
		q = 8
	)
	srv, err := prefmatch.NewServer(serveObjects(5000, d, 84), &prefmatch.Options{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	qs := serveQueries(q, d, 85)
	// A cancelable (but never canceled) context: Done() is non-nil, so
	// every checkpoint takes the real token path, not the zero-token skip.
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()

	var (
		dst      []prefmatch.Assignment
		offsets  []int
		batchErr error
	)
	appendBatch := func() {
		dst, offsets, batchErr = srv.TopKManyAppendContext(ctx, dst[:0], offsets[:0], qs, k)
	}
	for i := 0; i < 5; i++ {
		appendBatch()
		if batchErr != nil {
			t.Fatal(batchErr)
		}
	}
	if allocs := testing.AllocsPerRun(200, appendBatch); allocs != 0 {
		t.Fatalf("gated steady-state TopKManyAppendContext allocated %v times per batch, want 0", allocs)
	}
	if batchErr != nil {
		t.Fatal(batchErr)
	}
	if len(dst) != q*k {
		t.Fatalf("gated append batch returned %d assignments, want %d", len(dst), q*k)
	}
}

// TestServerTopKOneAlloc pins Server.TopK over the memory backend at one
// allocation per request — the returned slice. The query's weights are
// normalised into the pooled scratch arena and boxed by pointer, and the
// k-bounded engine is pooled, so nothing else may allocate: not with a
// background context, and not with the admission gate armed and a live
// cancelable context.
func TestServerTopKOneAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector (instrumented allocations, sync.Pool drops puts)")
	}
	const (
		d = 4
		k = 10
	)
	qs := serveQueries(8, d, 85)
	ctx, cancelFn := context.WithCancel(context.Background())
	defer cancelFn()
	for _, tc := range []struct {
		name string
		opts *prefmatch.Options
		ctx  context.Context
	}{
		{"plain", nil, context.Background()},
		{"gated+ctx", &prefmatch.Options{MaxInFlight: 4}, ctx},
	} {
		srv, err := prefmatch.NewServer(serveObjects(5000, d, 84), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		var (
			i    int
			got  []prefmatch.Assignment
			qerr error
		)
		query := func() {
			got, qerr = srv.TopKContext(tc.ctx, qs[i%len(qs)], k)
			i++
		}
		for j := 0; j < 5; j++ {
			query()
			if qerr != nil {
				t.Fatal(qerr)
			}
		}
		allocs := testing.AllocsPerRun(200, query)
		if qerr != nil {
			t.Fatal(qerr)
		}
		if len(got) != k {
			t.Fatalf("%s: TopK returned %d assignments, want %d", tc.name, len(got), k)
		}
		if allocs != 1 {
			t.Fatalf("%s: steady-state Server.TopK allocated %v times per request, want 1 (the result slice)", tc.name, allocs)
		}
	}
}
