// Chaos suite: the production-hardening guarantees under injected faults.
// Every test drives the real serving stack over the faulty wrapper (or a
// parked dynamic merge) and pins one robustness contract: deadlines fire
// mid-traversal without leaking pooled searchers, shed requests never
// touch a snapshot, a panic in one fan-out worker fails only that request,
// and Close returns within its bound even with a merge parked mid-flight.
// The suite is written to run under -race; CI runs it that way.
package prefmatch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"prefmatch/internal/guard"
	"prefmatch/internal/index"
	"prefmatch/internal/index/dynamic"
	"prefmatch/internal/index/faulty"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/index/sharded"
)

// chaosObjects derives a deterministic object set.
func chaosObjects(n, d int) []Object {
	rng := rand.New(rand.NewSource(42))
	objs := make([]Object, n)
	for i := range objs {
		vals := make([]float64, d)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		objs[i] = Object{ID: i, Values: vals}
	}
	return objs
}

func chaosQuery(id int) Query { return Query{ID: id, Weights: []float64{0.7, 0.3}} }

// newFaultyServer builds an unsharded server whose memory index is wrapped
// in the fault injector, so every snapshot pin and stream refill is
// observable and poisonable.
func newFaultyServer(t *testing.T, n int, opts *Options) (*Server, *faulty.Index) {
	t.Helper()
	return newFaultyServerOver(t, chaosObjects(n, 2), opts)
}

// newFaultyServerOver is newFaultyServer over a given object set.
func newFaultyServerOver(t *testing.T, objs []Object, opts *Options) (*Server, *faulty.Index) {
	t.Helper()
	if opts == nil {
		opts = &Options{}
	}
	if opts.SlowQueryLog == nil {
		opts.SlowQueryLog = io.Discard // keep injected panic stacks out of test output
	}
	d, items, caps, err := convertObjectSet(objs)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := mem.Build(d, items, nil)
	if err != nil {
		t.Fatal(err)
	}
	fix := faulty.Wrap(inner)
	srv, err := newServer(fix, caps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, fix
}

// newFaultyShardedServer builds a sharded server with every shard wrapped
// in its own fault injector, so a single shard can be made slow or
// poisoned while the others stay healthy.
func newFaultyShardedServer(t *testing.T, n, shards int, opts *Options) (*Server, []*faulty.Index) {
	t.Helper()
	return newFaultyShardedServerOver(t, chaosObjects(n, 2), shards, opts)
}

// newFaultyShardedServerOver is newFaultyShardedServer over a given object
// set.
func newFaultyShardedServerOver(t *testing.T, objs []Object, shards int, opts *Options) (*Server, []*faulty.Index) {
	t.Helper()
	if opts == nil {
		opts = &Options{}
	}
	if opts.SlowQueryLog == nil {
		opts.SlowQueryLog = io.Discard
	}
	d, items, caps, err := convertObjectSet(objs)
	if err != nil {
		t.Fatal(err)
	}
	fixs := make([]*faulty.Index, shards)
	ix, err := sharded.Build(d, items, &sharded.Options{
		Shards: shards,
		WrapShard: func(s int, inner index.ObjectIndex) index.ObjectIndex {
			f := faulty.Wrap(inner)
			fixs[s] = f
			return f
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(ix, caps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv, fixs
}

// searchedShard picks a shard the given top-k request actually reads
// (MBR pruning can skip low-bound shards whole, so faults must be
// injected into a shard the fan-out visits). It runs the request once
// clean and returns the first shard with snapshot reads.
func searchedShard(t *testing.T, srv *Server, fixs []*faulty.Index, q Query, k int) int {
	t.Helper()
	if _, err := srv.TopK(q, k); err != nil {
		t.Fatalf("warm-up TopK: %v", err)
	}
	for s, fix := range fixs {
		if fix.Calls(faulty.SiteRefill) > 0 {
			return s
		}
	}
	t.Fatal("no shard was searched by the warm-up request")
	return -1
}

// A 50ms deadline over a sharded top-k with one 500ms-slow shard must come
// back with ErrDeadlineExceeded — not hang until the slow shard finishes
// its whole search, and not leak the pooled searchers it armed.
func TestChaosDeadlineOnSlowShard(t *testing.T) {
	srv, fixs := newFaultyShardedServer(t, 600, 4, nil)
	slow := searchedShard(t, srv, fixs, chaosQuery(1), 10)
	fixs[slow].Inject(faulty.SiteRefill, faulty.Fault{Latency: 500 * time.Millisecond})

	ctx, cancelFn := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelFn()
	start := time.Now()
	_, err := srv.TopKContext(ctx, chaosQuery(1), 10)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("TopKContext over slow shard: err = %v, want ErrDeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "abandoned at") {
		t.Fatalf("deadline error does not name its stage: %v", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("deadline took %v to surface — the request effectively hung", elapsed)
	}
	if got := srv.Stats().Canceled; got < 1 {
		t.Fatalf("Stats.Canceled = %d after a deadline, want >= 1", got)
	}

	// The pooled searchers the canceled fan-out released must be clean:
	// subsequent requests reuse them and must succeed.
	fixs[slow].Clear(faulty.SiteRefill)
	for i := 0; i < 20; i++ {
		if _, err := srv.TopK(chaosQuery(i), 5); err != nil {
			t.Fatalf("TopK %d after canceled fan-out: %v", i, err)
		}
	}
}

// The slow-shard deadline contract must not depend on tree height: over
// single-leaf shards one slow read is the whole shard search, over
// multi-level shards the deadline passes between reads. Both must come
// back with ErrDeadlineExceeded.
func TestChaosDeadlineOnSlowShardTreeShapes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, shards int
		multi     bool // the slow shard's search reads more than one node
	}{
		{"single-leaf", 200, 8, false},
		{"multi-level", 8000, 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, fixs := newFaultyShardedServer(t, tc.n, tc.shards, nil)
			slow := searchedShard(t, srv, fixs, chaosQuery(1), 10)
			if reads := fixs[slow].Calls(faulty.SiteRefill); (reads > 1) != tc.multi {
				t.Fatalf("the slow shard's search read %d nodes; want multi-level=%v", reads, tc.multi)
			}
			fixs[slow].Inject(faulty.SiteRefill, faulty.Fault{Latency: 200 * time.Millisecond})

			ctx, cancelFn := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancelFn()
			start := time.Now()
			_, err := srv.TopKContext(ctx, chaosQuery(1), 10)
			if !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("TopKContext over slow shard: err = %v, want ErrDeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("deadline took %v to surface", elapsed)
			}
			fixs[slow].Clear(faulty.SiteRefill)
			if _, err := srv.TopK(chaosQuery(2), 5); err != nil {
				t.Fatalf("TopK after canceled fan-out: %v", err)
			}
		})
	}
}

// A deadline that passes during a request's last node read — every read
// before it fast, the last one starting inside the deadline and finishing
// outside it — must still fail the request with ErrDeadlineExceeded, on
// every read path of an unsharded server.
func TestChaosDeadlineDuringLastRead(t *testing.T) {
	srv, fix := newFaultyServer(t, 2000, &Options{ResultCacheEntries: -1})
	qs := []Query{chaosQuery(1), {ID: 2, Weights: []float64{0.2, 0.8}}}
	paths := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"TopK", func(ctx context.Context) error {
			_, err := srv.TopKContext(ctx, qs[0], 10)
			return err
		}},
		{"TopKMany", func(ctx context.Context) error {
			_, err := srv.TopKManyContext(ctx, qs, 10, 1)
			return err
		}},
		{"TopKManyAppend", func(ctx context.Context) error {
			_, _, err := srv.TopKManyAppendContext(ctx, nil, nil, qs, 10)
			return err
		}},
		{"Session", func(ctx context.Context) error {
			// A fresh session with the cache off walks on its first call.
			sess, err := srv.OpenSession(qs[1])
			if err != nil {
				return err
			}
			defer sess.Close()
			_, err = sess.TopKContext(ctx, 10)
			return err
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			before := fix.Calls(faulty.SiteRefill)
			if err := p.run(context.Background()); err != nil {
				t.Fatal(err)
			}
			reads := fix.Calls(faulty.SiteRefill) - before
			if reads < 2 {
				t.Fatalf("the request read %d nodes; the test needs a multi-read traversal", reads)
			}
			fix.Inject(faulty.SiteRefill, faulty.Fault{
				Latency: 150 * time.Millisecond,
				After:   fix.Calls(faulty.SiteRefill) + reads - 1,
			})
			defer fix.Clear(faulty.SiteRefill)
			ctx, cancelFn := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancelFn()
			err := p.run(ctx)
			if fix.Fired(faulty.SiteRefill) == 0 {
				t.Fatal("the slow last read never happened")
			}
			if !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
			}
		})
	}
}

// A deadline firing mid-traversal on the unsharded wave loop must surface
// as ErrDeadlineExceeded through Match as well.
func TestChaosDeadlineMidWave(t *testing.T) {
	srv, fix := newFaultyServer(t, 400, nil)
	fix.Inject(faulty.SiteRefill, faulty.Fault{Latency: 50 * time.Millisecond})

	ctx, cancelFn := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancelFn()
	_, err := srv.MatchContext(ctx, []Query{chaosQuery(1), chaosQuery(2)}, nil)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("MatchContext: err = %v, want ErrDeadlineExceeded", err)
	}
	fix.Clear(faulty.SiteRefill)
	if _, err := srv.Match([]Query{chaosQuery(1)}, nil); err != nil {
		t.Fatalf("Match after canceled wave: %v", err)
	}
}

// A deadline that passes while a wave computes its skyline must stop the
// skyline traversal at its next node read: with every read slower than the
// whole deadline, each skyline maintainer (one unsharded, one per shard)
// reads at most one node after the deadline, and the wave fails with
// ErrDeadlineExceeded instead of finishing the traversal first. The objects
// are 4-D so that every skyline traversal reads several leaves.
func TestChaosDeadlineDuringSkylineCompute(t *testing.T) {
	objs := chaosObjects(8000, 4)
	qs := []Query{{ID: 1, Weights: []float64{0.4, 0.3, 0.2, 0.1}}, {ID: 2, Weights: []float64{0.1, 0.2, 0.3, 0.4}}}
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"unsharded", 0},
		{"sharded", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				srv  *Server
				fixs []*faulty.Index
			)
			if tc.shards == 0 {
				var fix *faulty.Index
				srv, fix = newFaultyServerOver(t, objs, nil)
				fixs = []*faulty.Index{fix}
			} else {
				srv, fixs = newFaultyShardedServerOver(t, objs, tc.shards, nil)
			}
			reads := func() []int64 {
				out := make([]int64, len(fixs))
				for i, f := range fixs {
					out[i] = f.Calls(faulty.SiteRefill)
				}
				return out
			}
			before := reads()
			if _, err := srv.Match(qs, nil); err != nil {
				t.Fatal(err)
			}
			for i, n := range reads() {
				if d := n - before[i]; d < 3 {
					t.Fatalf("maintainer %d read %d nodes; the test needs multi-level traversals", i, d)
				}
			}
			for _, f := range fixs {
				f.Inject(faulty.SiteRefill, faulty.Fault{Latency: 50 * time.Millisecond})
			}
			defer func() {
				for _, f := range fixs {
					f.Clear(faulty.SiteRefill)
				}
			}()
			ctx, cancelFn := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancelFn()
			before = reads()
			_, err := srv.MatchContext(ctx, qs, nil)
			if !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("MatchContext: err = %v, want ErrDeadlineExceeded", err)
			}
			// Every read lasts longer than the deadline, so only a
			// maintainer's first read can start before it.
			for i, n := range reads() {
				if d := n - before[i]; d > 2 {
					t.Fatalf("maintainer %d read %d nodes, more than one after the deadline", i, d)
				}
			}
		})
	}
}

// A request refused by the admission gate must fail with ErrOverloaded
// before touching any snapshot: no pin, no refill, nothing.
func TestChaosShedNeverTouchesSnapshot(t *testing.T) {
	srv, fix := newFaultyServer(t, 300, &Options{MaxInFlight: 1})
	// Park one request inside the gate: its first stream refill sleeps.
	fix.Inject(faulty.SiteRefill, faulty.Fault{Latency: 700 * time.Millisecond, Times: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := srv.TopK(chaosQuery(1), 5); err != nil {
			t.Errorf("parked TopK: %v", err)
		}
	}()
	for fix.Fired(faulty.SiteRefill) == 0 {
		time.Sleep(time.Millisecond)
	}

	pins, refills := fix.Calls(faulty.SitePin), fix.Calls(faulty.SiteRefill)
	_, err := srv.TopK(chaosQuery(2), 5)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("gated TopK: err = %v, want ErrOverloaded", err)
	}
	if got := fix.Calls(faulty.SitePin); got != pins {
		t.Fatalf("shed request pinned a snapshot: SitePin calls %d -> %d", pins, got)
	}
	if got := fix.Calls(faulty.SiteRefill); got != refills {
		t.Fatalf("shed request read a node: SiteRefill calls %d -> %d", refills, got)
	}
	if got := srv.Stats().Shed; got != 1 {
		t.Fatalf("Stats.Shed = %d, want 1", got)
	}
	wg.Wait()
}

// A context canceled before the call starts must be refused at admission,
// without touching the index.
func TestChaosCanceledBeforeAdmission(t *testing.T) {
	srv, fix := newFaultyServer(t, 100, nil)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	pins := fix.Calls(faulty.SitePin)
	_, err := srv.TopKContext(ctx, chaosQuery(1), 5)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled TopKContext: err = %v, want ErrCanceled", err)
	}
	if !strings.Contains(err.Error(), "admission") {
		t.Fatalf("pre-canceled error does not name the admission stage: %v", err)
	}
	if got := fix.Calls(faulty.SitePin); got != pins {
		t.Fatalf("canceled request pinned a snapshot: %d -> %d", pins, got)
	}
}

// A panic injected into one shard's fan-out worker must fail only that
// request — converted to an error naming the panic — while concurrent and
// subsequent requests stay healthy and the process stays up.
func TestChaosPanicIsolatedToRequest(t *testing.T) {
	srv, fixs := newFaultyShardedServer(t, 600, 4, nil)
	poisonShard := searchedShard(t, srv, fixs, chaosQuery(1), 10)
	fixs[poisonShard].Inject(faulty.SiteRefill, faulty.Fault{Panic: "chaos: injected", Times: 1})

	_, poisoned := srv.TopK(chaosQuery(1), 10)
	if poisoned == nil {
		t.Fatal("injected panic never surfaced as a request error")
	}
	var pe *guard.PanicError
	if !errors.As(poisoned, &pe) {
		t.Fatalf("poisoned request error is not a PanicError: %v", poisoned)
	}
	if fmt.Sprint(pe.Val) != "chaos: injected" {
		t.Fatalf("PanicError.Val = %v, want the injected value", pe.Val)
	}
	if got := srv.Stats().Panics; got != 1 {
		t.Fatalf("Stats.Panics = %d, want 1", got)
	}
	// The server keeps serving on the same pooled machinery.
	for i := 0; i < 20; i++ {
		if _, err := srv.TopK(chaosQuery(i), 5); err != nil {
			t.Fatalf("TopK %d after isolated panic: %v", i, err)
		}
	}
}

// A panic in one MatchMany wave worker fails the batch with a PanicError
// instead of crashing the process.
func TestChaosPanicInWaveWorker(t *testing.T) {
	srv, fix := newFaultyServer(t, 300, nil)
	fix.Inject(faulty.SiteRefill, faulty.Fault{Panic: "chaos: wave", Times: 1})
	waves := [][]Query{{chaosQuery(1)}, {chaosQuery(2)}, {chaosQuery(3)}}
	_, err := srv.MatchMany(waves, nil, 2)
	if err == nil {
		t.Fatal("MatchMany with a poisoned wave returned nil error")
	}
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("MatchMany error is not a PanicError: %v", err)
	}
	fix.Clear(faulty.SiteRefill)
	if _, err := srv.MatchMany(waves, nil, 2); err != nil {
		t.Fatalf("MatchMany after isolated panic: %v", err)
	}
}

// Close during a merge parked mid-flight must return within its bound with
// an error naming the stuck merge — never deadlock.
func TestChaosCloseDuringParkedMerge(t *testing.T) {
	d, items, caps, err := convertObjectSet(chaosObjects(200, 2))
	if err != nil {
		t.Fatal(err)
	}
	park := make(chan struct{})
	parked := make(chan struct{})
	var once sync.Once
	ix, err := dynamic.Build(d, items, &dynamic.Options{
		MergeThreshold: 4,
		OnMergeStage: func(stage string) {
			if stage == "built" {
				once.Do(func() { close(parked) })
				<-park
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(ix, caps, &Options{DrainTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Cross the merge threshold so a background merge starts and parks.
	for i := 0; i < 8; i++ {
		if err := srv.Insert(Object{ID: 10_000 + i, Values: []float64{0.5, 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	<-parked

	start := time.Now()
	cerr := srv.Close()
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("Close with a parked merge took %v, want within the drain bound", elapsed)
	}
	if cerr == nil || !strings.Contains(cerr.Error(), "merge still in flight") {
		t.Fatalf("Close with a parked merge: err = %v, want a merge-in-flight report", cerr)
	}
	close(park) // let the merge goroutine finish
}

// Close is idempotent, safe without an admin server, and flips the server
// into refusing reads and writes with ErrClosed.
func TestChaosCloseIdempotent(t *testing.T) {
	srv, err := NewServer(chaosObjects(100, 2), &Options{Backend: Dynamic})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := srv.TopK(chaosQuery(1), 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("TopK after Close: err = %v, want ErrClosed", err)
	}
	if err := srv.Insert(Object{ID: 9999, Values: []float64{0.1, 0.2}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: err = %v, want ErrClosed", err)
	}
}

// Close's drain path folds a resident write tier into the base arena — the
// final Compact the interval trigger alone would never run on an idle
// index.
func TestChaosCloseCompactsResidentDelta(t *testing.T) {
	srv, err := NewServer(chaosObjects(100, 2), &Options{Backend: Dynamic, MergeThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := srv.Insert(Object{ID: 10_000 + i, Values: []float64{0.5, 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	if srv.Stats().DeltaSize == 0 {
		t.Fatal("setup: delta empty before Close")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := srv.Stats().DeltaSize; got != 0 {
		t.Fatalf("DeltaSize = %d after Close, want 0 (final compact)", got)
	}
}

// Close racing live queries and writes: every request either completes or
// fails with ErrClosed; nothing deadlocks, nothing races (-race pins it).
func TestChaosConcurrentCloseVsTraffic(t *testing.T) {
	srv, err := NewServer(chaosObjects(400, 2), &Options{Backend: Dynamic, Shards: 2, MergeThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var err error
				switch {
				case w == 0:
					err = srv.Insert(Object{ID: 50_000 + i, Values: []float64{0.4, 0.6}})
				case w == 1 && i%3 == 0:
					err = srv.Compact()
				default:
					_, err = srv.TopK(chaosQuery(i), 5)
				}
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("worker %d: unexpected error during close race: %v", w, err)
					return
				}
				if errors.Is(err, ErrClosed) {
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close under traffic: %v", err)
	}
	close(stop)
	wg.Wait()
	if _, err := srv.TopK(chaosQuery(1), 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("TopK after drained Close: err = %v, want ErrClosed", err)
	}
}

// /healthz walks the state machine: degraded while the admission gate is
// saturated, 503 draining once Close begins, gone after Close finishes.
func TestChaosHealthzStateMachine(t *testing.T) {
	srv, fix := newFaultyServer(t, 200, &Options{MaxInFlight: 1, AdminAddr: "127.0.0.1:0"})
	addr := srv.AdminAddr()
	get := func() (int, string) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(body))
	}

	if code, body := get(); code != http.StatusOK || body != "ok" {
		t.Fatalf("healthy healthz = %d %q, want 200 ok", code, body)
	}

	// Park a request so the gate saturates.
	fix.Inject(faulty.SiteRefill, faulty.Fault{Latency: 700 * time.Millisecond, Times: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.TopK(chaosQuery(1), 5)
	}()
	for fix.Fired(faulty.SiteRefill) == 0 {
		time.Sleep(time.Millisecond)
	}
	if code, body := get(); code != http.StatusOK || !strings.HasPrefix(body, "degraded:") {
		t.Fatalf("saturated healthz = %d %q, want 200 degraded", code, body)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	// The drain holds while the parked request runs; healthz must say so.
	deadline := time.Now().Add(500 * time.Millisecond)
	for {
		code, body := get()
		if code == http.StatusServiceUnavailable && body == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz during drain = %d %q, want 503 draining", code, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if code, _ := get(); code != 0 {
		t.Fatalf("healthz after Close answered %d, want the admin listener gone", code)
	}
}

// Error taxonomy: the exported sentinels are what callers match on.
func TestChaosErrorTaxonomy(t *testing.T) {
	if !errors.Is(ErrCanceled, context.Canceled) {
		t.Fatal("ErrCanceled must match context.Canceled")
	}
	if !errors.Is(ErrDeadlineExceeded, context.DeadlineExceeded) {
		t.Fatal("ErrDeadlineExceeded must match context.DeadlineExceeded")
	}
}
