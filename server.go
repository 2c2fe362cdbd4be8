package prefmatch

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prefmatch/internal/cancel"
	"prefmatch/internal/guard"
	"prefmatch/internal/index"
	"prefmatch/internal/index/sharded"
	"prefmatch/internal/prefs"
	"prefmatch/internal/rescache"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// Server indexes a slow-changing object inventory once and serves many
// preference evaluations against it concurrently: full matching waves
// (Match, MatchMany), per-user top-k queries (TopK, TopKMany,
// TopKMonotone) and skyline computations.
//
// A Server runs on the Memory backend family — the only backends whose
// node reads are free of side effects — and hands every request a
// read-only snapshot of the index with its own work counters, so requests
// never synchronise with each other on the hot path. The only shared write
// is the merge of each request's counters into the server totals (Stats)
// after the request completes. All methods are safe for concurrent use.
//
// With Options.Backend set to Dynamic, the inventory is no longer
// slow-changing: Insert, Update and Remove mutate the live index while
// requests keep serving. Each write lands in a delta R-tree write tier and
// publishes a new epoch; each request re-pins the latest epoch when it
// starts and reads it consistently to completion, while a background merge
// (Options.MergeThreshold, Options.MergeInterval, or manual Compact)
// re-packs the write tier into a fresh base arena. Reads stay
// allocation-free throughout. On every other backend the write methods
// return an error wrapping index.ErrReadOnly.
//
// With Options.Shards set, the server runs on the sharded composite over
// memory (or dynamic) shards: skyline requests traverse a composite
// snapshot, top-k requests fan ranked search across per-shard snapshot
// workers and merge, and matching waves run shard-parallel through
// sharded.MatchWave — the SB loop at the merge point, per-shard skylines
// computed and maintained concurrently — with results bit-identical to the
// single-index wave. Shards whose bounding box cannot contribute are
// skipped (Stats.ShardsPruned counts them). Over dynamic shards, writes are
// routed by the partitioner and each shard rotates epochs independently.
//
// Matching waves are restricted to the skyline-based algorithm, which never
// mutates the object index; requesting BruteForce or Chain returns an
// error, as does deleting from a snapshot (index.ErrReadOnly) if an
// internal invariant ever let one through.
type Server struct {
	ix      servingIndex
	sh      *sharded.Index // non-nil for a sharded index: enables the per-shard ranked fan-out
	scratch sync.Pool      // *serveScratch: pooled per-request plumbing

	// capacities is the capacity map in effect for new requests, replaced
	// copy-on-write by the write path (Insert/Update/Remove) so in-flight
	// requests keep the map they started with and never race the writer.
	capacities atomic.Pointer[map[index.ObjID]int]
	wmu        sync.Mutex // serialises Insert/Update/Remove/Compact

	mu      sync.Mutex
	agg     stats.Counters
	elapsed time.Duration
	served  int64

	// om is the server's observability surface: per-op latency histograms,
	// stage histograms, slow-query log. Always non-nil; every recording
	// method is allocation-free.
	om *serverMetrics

	// Lifecycle and admission state (see lifecycle.go). state advances
	// serving → draining → closed; inflight counts admitted requests;
	// gate is the MaxInFlight semaphore (nil means unlimited); closing is
	// closed when Close begins, unblocking waiters queued on the gate.
	state      atomic.Int32
	inflight   atomic.Int64
	gate       chan struct{}
	maxWait    time.Duration
	drainBound time.Duration
	closing    chan struct{}
	closeOnce  sync.Once
	closeErr   error

	// Preference-session state: the epoch-keyed result cache shared by all
	// sessions (nil when Options.ResultCacheEntries is negative) and the
	// registry of open sessions, so Close can mark them closed during the
	// drain (see OpenSession, lifecycle.go).
	rc       *rescache.Cache
	sessMu   sync.Mutex
	sessions map[*Session]struct{}

	adminMu sync.Mutex
	admin   *adminState
}

// caps returns the capacity map in effect for a request starting now (nil
// when every object has the default capacity 1).
func (s *Server) caps() map[index.ObjID]int {
	if m := s.capacities.Load(); m != nil {
		return *m
	}
	return nil
}

// serveScratch is the per-request plumbing a read-only request needs — a
// snapshot wired to a private counter sink, plus the batched path's reusable
// buffers — pooled so a steady-state request allocates nothing. Reusing a
// snapshot across requests is sound on every serving backend, each by its
// own mutation story: mem views stay valid forever under the freeze
// contract (the index never mutates while the server is in use), while
// dynamic and sharded-over-dynamic views pin an epoch — refresh (reset on
// acquire, allocation-free) re-pins the latest one, and the request then
// reads that epoch consistently no matter how the writers and background
// merges rotate underneath it.
type serveScratch struct {
	snap    index.ObjectIndex
	refresh func() // re-pins the latest epoch; nil on non-rotating backends
	c       stats.Counters
	arena   vec.Point          // normalised query weights, appended per batch
	fnvals  []prefs.Function   // batch functions, weights aliasing arena
	fns     []prefs.Preference // *Function views of fnvals (pointer boxing is allocation-free)
	ks      []int
	rbuf    []topk.Result
}

func (s *Server) acquireScratch() *serveScratch {
	sc := s.scratch.Get().(*serveScratch)
	sc.c = stats.Counters{}
	if sc.refresh != nil {
		sc.refresh()
	}
	return sc
}

// linear normalises a query that passed checkLinear into the scratch's
// arena and returns its function boxed by pointer — recognised by
// prefs.Linear and allocation-free once the scratch is warm. The pointer
// stays valid until the next linear call or releaseScratch.
func (sc *serveScratch) linear(q Query) prefs.Preference {
	f, arena, _ := prefs.AppendFunction(sc.arena, q.ID, q.Weights)
	sc.arena = arena
	sc.fnvals = append(sc.fnvals, f)
	return &sc.fnvals[len(sc.fnvals)-1]
}

func (s *Server) releaseScratch(sc *serveScratch) {
	sc.arena = sc.arena[:0]
	sc.fnvals = sc.fnvals[:0]
	sc.fns = sc.fns[:0]
	s.scratch.Put(sc)
}

// servingIndex is what a Server needs from its backend: the traversal
// surface plus concurrent read-only snapshots.
type servingIndex interface {
	index.ObjectIndex
	index.Snapshotter
}

// asServing checks that ix can hand out concurrent read-only views,
// returning a descriptive error — never a silent fallback — when it cannot.
func asServing(ix index.ObjectIndex) (servingIndex, error) {
	type snapProbe interface{ CanSnapshot() bool }
	if p, ok := ix.(snapProbe); ok && !p.CanSnapshot() {
		return nil, fmt.Errorf("prefmatch: %T cannot serve concurrently: its shards do not implement index.Snapshotter (paged shards mutate their LRU buffer on every read; build the shards on the Memory backend)", ix)
	}
	s, ok := ix.(servingIndex)
	if !ok {
		return nil, fmt.Errorf("prefmatch: %T cannot serve concurrently: it does not implement index.Snapshotter (the paged backend mutates its LRU buffer on every read; build on the Memory backend)", ix)
	}
	return s, nil
}

// NewServer validates and indexes the objects for concurrent serving.
// Options may be nil. PageSize sets the node fan-outs and Shards/ShardBy
// select the sharded composite; Backend Dynamic (with its
// MergeThreshold/MergeInterval knobs) builds a live-mutable server, any
// other Backend is coerced to Memory, because a Server needs side-effect-free
// reads (the paged LRU buffer disqualifies itself). BufferFraction and
// BufferPages are ignored. The algorithm-related fields are taken per Match
// call instead.
func NewServer(objects []Object, opts *Options) (*Server, error) {
	if opts == nil {
		opts = &Options{}
	}
	if len(objects) == 0 {
		return nil, errNoObjects
	}
	d, items, capacities, err := convertObjectSet(objects)
	if err != nil {
		return nil, err
	}
	sopts := *opts
	if sopts.Backend != Dynamic {
		sopts.Backend = Memory
	}
	ix, _, err := buildIndex(items, d, &sopts)
	if err != nil {
		return nil, err
	}
	return newServer(ix, capacities, &sopts)
}

// NewServerFromIndex serves over an already-built reusable Index, sharing
// its storage instead of re-indexing the objects. The index must be able to
// hand out read-only snapshots — it must have been built on the Memory
// backend (sharded or not); a paged-built index returns a descriptive
// error. The caller must not mutate or rebuild the index while the server
// is in use (the Snapshotter freeze contract).
func NewServerFromIndex(ix *Index) (*Server, error) {
	return newServer(ix.ix, ix.capacities, nil)
}

func newServer(ix index.ObjectIndex, capacities map[index.ObjID]int, opts *Options) (*Server, error) {
	serving, err := asServing(ix)
	if err != nil {
		return nil, err
	}
	s := &Server{ix: serving, closing: make(chan struct{}), sessions: map[*Session]struct{}{}}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts == nil || opts.ResultCacheEntries >= 0 {
		entries := 0
		if opts != nil {
			entries = opts.ResultCacheEntries
		}
		s.rc = rescache.New(entries)
	}
	if opts != nil {
		if opts.MaxInFlight > 0 {
			s.gate = make(chan struct{}, opts.MaxInFlight)
		}
		s.maxWait = opts.MaxQueueWait
		s.drainBound = opts.DrainTimeout
	}
	if capacities != nil {
		s.capacities.Store(&capacities)
	}
	if sh, ok := ix.(*sharded.Index); ok {
		s.sh = sh
	}
	s.scratch.New = func() any {
		sc := &serveScratch{snap: s.ix.Snapshot()}
		if r, ok := sc.snap.(interface{ Refresh() }); ok {
			sc.refresh = r.Refresh
		}
		sc.snap.SetCounters(&sc.c)
		return sc
	}
	s.om = newServerMetrics(s, opts)
	if opts != nil && opts.AdminAddr != "" {
		if _, err := s.ServeAdmin(opts.AdminAddr); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// mutable returns the serving index's write surface, or an error wrapping
// index.ErrReadOnly when the server was built on a static backend.
func (s *Server) mutable() (index.MutableIndex, error) {
	err := index.ReadOnlyError("this server's static backend (build the server with Options{Backend: Dynamic} for live writes)")
	m, ok := s.ix.(index.MutableIndex)
	if !ok {
		return nil, err
	}
	if p, ok := s.ix.(interface{ CanMutate() bool }); ok && !p.CanMutate() {
		return nil, err
	}
	return m, nil
}

// validateObject is the write-path counterpart of convertObjects' per-object
// checks, returning the converted ID and a cloned point.
func (s *Server) validateObject(obj Object) (index.ObjID, vec.Point, error) {
	if len(obj.Values) != s.ix.Dim() {
		return 0, nil, fmt.Errorf("prefmatch: object %d has %d attributes, want %d", obj.ID, len(obj.Values), s.ix.Dim())
	}
	if obj.ID < 0 || int64(obj.ID) > 1<<31-1 {
		return 0, nil, fmt.Errorf("prefmatch: object ID %d out of range", obj.ID)
	}
	if obj.Capacity < 0 {
		return 0, nil, fmt.Errorf("prefmatch: object %d has negative capacity %d", obj.ID, obj.Capacity)
	}
	return index.ObjID(obj.ID), vec.Point(obj.Values).Clone(), nil
}

// setCapacityLocked records obj's capacity (0 and 1 both mean the default
// single unit) by replacing the capacity map copy-on-write, so requests
// that already hold the old map are unaffected. Callers hold wmu.
func (s *Server) setCapacityLocked(id index.ObjID, capacity int) {
	cur := s.caps()
	_, present := cur[id]
	if capacity <= 1 && !present {
		return
	}
	next := make(map[index.ObjID]int, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	if capacity > 1 {
		next[id] = capacity
	} else {
		delete(next, id)
	}
	s.capacities.Store(&next)
}

// Insert adds one object to the live index while serving continues: the
// write lands in the backend's delta tier and publishes a new epoch, so
// in-flight requests keep the epoch they pinned and new requests see the
// object. Requires the Dynamic backend (sharded or not); static servers
// return an error wrapping index.ErrReadOnly. Safe for concurrent use with
// all read methods and other writes. Writes pass the same admission gate
// as reads (ErrOverloaded, ErrClosed apply).
func (s *Server) Insert(obj Object) error {
	return s.insert(cancel.Token{}, obj)
}

func (s *Server) insert(tok cancel.Token, obj Object) (err error) {
	if err := s.admit(tok); err != nil {
		return err
	}
	defer s.exitRequest()
	defer s.finishReq(opInsert, obj.ID, &err)
	start := time.Now()
	m, err := s.mutable()
	if err != nil {
		s.om.fail(opInsert)
		return err
	}
	id, pt, err := s.validateObject(obj)
	if err != nil {
		s.om.fail(opInsert)
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := tok.Check("write.apply"); err != nil {
		return err
	}
	if err := m.Insert(id, pt); err != nil {
		s.om.fail(opInsert)
		return err
	}
	s.setCapacityLocked(id, obj.Capacity)
	s.om.observeOp(opInsert, time.Since(start))
	return nil
}

// Update moves an already-indexed object to new attribute values (and
// capacity) as one atomic step: no request observes the object absent.
// Returns index.ErrNotFound when the object is not indexed. Requires the
// Dynamic backend, like Insert.
func (s *Server) Update(obj Object) error {
	return s.update(cancel.Token{}, obj)
}

func (s *Server) update(tok cancel.Token, obj Object) (err error) {
	if err := s.admit(tok); err != nil {
		return err
	}
	defer s.exitRequest()
	defer s.finishReq(opUpdate, obj.ID, &err)
	start := time.Now()
	m, err := s.mutable()
	if err != nil {
		s.om.fail(opUpdate)
		return err
	}
	id, pt, err := s.validateObject(obj)
	if err != nil {
		s.om.fail(opUpdate)
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := tok.Check("write.apply"); err != nil {
		return err
	}
	if err := m.Update(id, pt); err != nil {
		s.om.fail(opUpdate)
		return err
	}
	s.setCapacityLocked(id, obj.Capacity)
	s.om.observeOp(opUpdate, time.Since(start))
	return nil
}

// Remove deletes one object from the live index by ID. Returns
// index.ErrNotFound when the object is not indexed. Requires the Dynamic
// backend, like Insert.
func (s *Server) Remove(id int) error {
	return s.remove(cancel.Token{}, id)
}

func (s *Server) remove(tok cancel.Token, id int) (err error) {
	if err := s.admit(tok); err != nil {
		return err
	}
	defer s.exitRequest()
	defer s.finishReq(opRemove, id, &err)
	start := time.Now()
	m, err := s.mutable()
	if err != nil {
		s.om.fail(opRemove)
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := tok.Check("write.apply"); err != nil {
		return err
	}
	p, ok := s.ix.(interface {
		PointOf(index.ObjID) (vec.Point, bool)
	})
	if !ok {
		s.om.fail(opRemove)
		return fmt.Errorf("prefmatch: %T accepts writes but cannot resolve objects by ID", s.ix)
	}
	pt, found := p.PointOf(index.ObjID(id))
	if !found {
		s.om.fail(opRemove)
		return index.ErrNotFound
	}
	if err := m.Delete(index.ObjID(id), pt); err != nil {
		s.om.fail(opRemove)
		return err
	}
	s.setCapacityLocked(index.ObjID(id), 0)
	s.om.observeOp(opRemove, time.Since(start))
	return nil
}

// Compact forces a synchronous write-tier merge: the delta and tombstones
// are re-packed into a fresh base arena and published as a new epoch (per
// shard, on a sharded server). The third merge-policy lever next to
// Options.MergeThreshold and Options.MergeInterval — call it before a read
// burst or after bulk writes. Requires the Dynamic backend, like Insert.
func (s *Server) Compact() error {
	return s.compact(cancel.Token{})
}

func (s *Server) compact(tok cancel.Token) (err error) {
	if err := s.admit(tok); err != nil {
		return err
	}
	defer s.exitRequest()
	defer s.finishReq(opCompact, -1, &err)
	start := time.Now()
	if _, err := s.mutable(); err != nil {
		s.om.fail(opCompact)
		return err
	}
	c, ok := s.ix.(interface{ Compact() })
	if !ok {
		s.om.fail(opCompact)
		return fmt.Errorf("prefmatch: %T accepts writes but has no write tier to compact", s.ix)
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := tok.Check("write.apply"); err != nil {
		return err
	}
	c.Compact()
	s.om.observeOp(opCompact, time.Since(start))
	return nil
}

// Len returns the number of indexed objects.
func (s *Server) Len() int { return s.ix.Len() }

// Dim returns the number of attributes per object.
func (s *Server) Dim() int { return s.ix.Dim() }

// record merges one completed request's accounting into the server totals.
func (s *Server) record(c *stats.Counters, elapsed time.Duration) {
	s.recordN(c, elapsed, 1)
}

// recordN is record for a batched request answering n logical queries at
// once: Served still advances by n, so batching changes how the work is
// done, not how much serving the totals report.
func (s *Server) recordN(c *stats.Counters, elapsed time.Duration, n int) {
	s.mu.Lock()
	s.agg.Add(c)
	s.elapsed += elapsed
	s.served += int64(n)
	s.mu.Unlock()
}

// Stats returns the cumulative work of every request served so far, merged
// from the per-request counters. Elapsed is the sum of per-request wall
// clock, not the server's lifetime — with W workers it can exceed real time
// by up to a factor of W. On the Dynamic backend the Epoch, DeltaSize and
// MergesCompleted gauges report the live index's state as of this call.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	out := statsFromCounters(&s.agg, s.elapsed)
	s.mu.Unlock()
	if e, ok := s.ix.(interface{ Epoch() uint64 }); ok {
		out.Epoch = e.Epoch()
	}
	if d, ok := s.ix.(interface{ DeltaSize() int }); ok {
		out.DeltaSize = int64(d.DeltaSize())
	}
	if m, ok := s.ix.(interface{ MergesCompleted() int64 }); ok {
		out.MergesCompleted = m.MergesCompleted()
	}
	out.Shed = s.om.shed.Load()
	out.Canceled = s.om.canceled.Load()
	out.Panics = s.om.panics.Load()
	return out
}

// firstQID picks the representative query ID a batch request is logged
// under when it panics: the first query's ID, or -1 for an empty batch.
func firstQID(queries []Query) int {
	if len(queries) == 0 {
		return -1
	}
	return queries[0].ID
}

// Served returns the number of requests completed so far.
func (s *Server) Served() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// Match runs one skyline-based matching wave of queries against the shared
// index, exactly like Index.Match but safe to call concurrently: the wave
// runs against read-only snapshots with private counters. On a sharded
// server the wave fans across all CPUs' worth of per-shard workers
// (sharded.MatchWave); the result is bit-identical to the unsharded wave.
// opts may be nil; the Algorithm field must be SkylineBased (the zero
// value) and storage fields are ignored.
func (s *Server) Match(queries []Query, opts *Options) (*Result, error) {
	return s.matchReq(cancel.Token{}, queries, opts)
}

// matchReq is Match behind the admission gate, with the request's
// cancellation token threaded into the wave loop.
func (s *Server) matchReq(tok cancel.Token, queries []Query, opts *Options) (_ *Result, err error) {
	if err := s.admit(tok); err != nil {
		return nil, err
	}
	defer s.exitRequest()
	defer s.finishReq(opMatch, firstQID(queries), &err)
	return s.match(tok, queries, opts, 0)
}

// match implements Match with an explicit shard-worker budget: 0 lets a
// lone request fan across GOMAXPROCS shard workers, while MatchMany passes
// its budget split so the outer per-wave fan-out and the inner per-shard
// fan-out never multiply into oversubscription (the TopKMany discipline).
// The caller has already passed the admission gate.
func (s *Server) match(tok cancel.Token, queries []Query, opts *Options, shardWorkers int) (*Result, error) {
	if s.sh != nil {
		return s.matchSharded(tok, queries, opts, shardWorkers)
	}
	var tr reqTrace
	tr.begin(0)
	snap := s.ix.Snapshot()
	tr.mark(stagePin)
	res, c, err := matchWave(snap, s.caps(), queries, opts, tok)
	err = handBack(tok, err)
	tr.mark(stageTraverse)
	if err != nil {
		s.om.fail(opMatch)
		return nil, err
	}
	s.record(c, res.Stats.Elapsed)
	tr.mark(stageMerge)
	s.om.finish(opMatch, &tr, c, 1)
	return res, nil
}

// matchSharded answers one matching wave on a sharded server by fanning the
// engine across per-shard snapshots (sharded.MatchWave) with the given
// shard-worker budget. The wave's merged accounting is recorded into the
// server totals exactly like any other request.
func (s *Server) matchSharded(tok cancel.Token, queries []Query, opts *Options, shardWorkers int) (*Result, error) {
	vstart := time.Now()
	fns, copts, err := waveInputs(s.ix.Dim(), queries, opts)
	if err != nil {
		s.om.fail(opMatch)
		return nil, err
	}
	var tr reqTrace
	tr.begin(time.Since(vstart))
	copts.Capacities = s.caps()
	copts.Cancel = tok
	c := &stats.Counters{}
	pairs, err := s.sh.MatchWave(fns, copts, shardWorkers, c)
	err = handBack(tok, err)
	tr.mark(stageTraverse)
	if err != nil {
		s.om.fail(opMatch)
		return nil, err
	}
	res := &Result{Assignments: assignmentsFromPairs(pairs)}
	res.Stats = statsFromCounters(c, tr.stages[stageTraverse])
	s.record(c, tr.stages[stageTraverse])
	tr.mark(stageMerge)
	s.om.finish(opMatch, &tr, c, 1)
	return res, nil
}

// MatchMany evaluates independent matching waves across workers goroutines
// (0 or negative means GOMAXPROCS) and returns one Result per wave, in wave
// order. Each wave is a complete stable matching of its queries against the
// full object set, identical to what a sequential Match of that wave
// returns. If any wave fails, the joined errors are returned and the
// results are discarded.
//
// On a sharded server, workers is the total parallelism budget: it is
// spent on the per-wave fan-out first, and whatever the wave count leaves
// unused goes to each wave's per-shard fan-out (a one-wave batch with
// workers=0 fans across all CPUs' worth of shard workers; workers=1 stays
// fully sequential).
func (s *Server) MatchMany(waves [][]Query, opts *Options, workers int) ([]*Result, error) {
	return s.matchMany(cancel.Token{}, waves, opts, workers)
}

func (s *Server) matchMany(tok cancel.Token, waves [][]Query, opts *Options, workers int) (_ []*Result, err error) {
	if err := s.admit(tok); err != nil {
		return nil, err
	}
	defer s.exitRequest()
	defer s.finishReq(opMatch, -1, &err)
	results := make([]*Result, len(waves))
	errs := make([]error, len(waves))
	budget := workers
	if budget < 1 {
		budget = runtime.GOMAXPROCS(0)
	}
	shardWorkers := 1
	if s.sh != nil {
		if outer := clampWorkers(budget, len(waves)); outer > 0 && budget/outer > 1 {
			shardWorkers = budget / outer
		}
	}
	fanOut(len(waves), budget, func(i int) {
		errs[i] = guard.Safe(func() error {
			var e error
			results[i], e = s.match(tok, waves[i], opts, shardWorkers)
			return e
		})
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return results, nil
}

// serve runs one read-only request against a pooled snapshot of the index
// and, on success, merges the request's accounting into the server totals.
// The single place that implements the snapshot-per-request discipline:
// each pool entry owns one snapshot wired to its own counter sink, so
// concurrent requests never share a sink and a steady-state request
// allocates no plumbing. The caller times its own validation (it runs
// before any shared plumbing exists) and passes the duration in; serve
// traces the remaining stages — scratch/epoch pin, traversal, counter
// merge — and feeds the op's latency histogram and the slow-query log.
// The recorded Stats.Elapsed stays the traversal time alone, exactly as
// before tracing existed. req runs on the scratch (snapshot, counter sink,
// arena); a request whose token fires before serve hands the result back
// fails with the token's error (see handBack).
func serve[T any](s *Server, op serverOp, tok cancel.Token, validate time.Duration, req func(sc *serveScratch) (T, error)) (T, error) {
	var tr reqTrace
	tr.begin(validate)
	sc := s.acquireScratch()
	tr.mark(stagePin)
	out, err := req(sc)
	err = handBack(tok, err)
	tr.mark(stageTraverse)
	if err != nil {
		s.releaseScratch(sc)
		s.om.fail(op)
		var zero T
		return zero, err
	}
	s.record(&sc.c, tr.stages[stageTraverse])
	tr.mark(stageMerge)
	s.om.finish(op, &tr, &sc.c, 1)
	s.releaseScratch(sc)
	return out, nil
}

// TopK returns the k best objects for one linear query, best first, without
// rebuilding the index (compare the package-level TopK, which bulk-loads a
// throwaway index per call). On a sharded server the request fans out
// across all CPUs' worth of per-shard snapshot workers. Safe for concurrent
// use.
func (s *Server) TopK(query Query, k int) ([]Assignment, error) {
	return s.topKOne(cancel.Token{}, linearQuery(query), k)
}

// TopKMonotone is TopK for an arbitrary monotone preference.
func (s *Server) TopKMonotone(query PreferenceQuery, k int) ([]Assignment, error) {
	return s.topKOne(cancel.Token{}, monotoneQuery(query), k)
}

// topKOne is the one single-query top-k request path, behind TopK,
// TopKMonotone, TopKPref and their *Context twins: admission, validation
// (before the k == 0 short-circuit, so k never changes what is accepted),
// then either a k-bounded walk of the pooled snapshot (serve) or, on a
// sharded server, ranked search fanned across all CPUs' worth of per-shard
// snapshot workers and merged through the score-ordered heap with
// whole-shard MBR pruning — bit-identical to the unsharded walk. The
// sharded fan-out merges its per-shard counters into one request sink and
// records it like any other request.
func (s *Server) topKOne(tok cancel.Token, q prefQuery, k int) (_ []Assignment, err error) {
	if err := s.admit(tok); err != nil {
		return nil, err
	}
	defer s.exitRequest()
	defer s.finishReq(opTopK, q.id, &err)
	vstart := time.Now()
	if err := q.check(s.ix.Dim(), k); err != nil {
		s.om.fail(opTopK)
		return nil, err
	}
	validate := time.Since(vstart)
	if k == 0 {
		return nil, nil
	}
	if s.sh == nil {
		return serve(s, opTopK, tok, validate, func(sc *serveScratch) ([]Assignment, error) {
			return topkOver(sc.snap, q.id, q.preference(sc), k, tok, &sc.c)
		})
	}
	var tr reqTrace
	tr.begin(validate)
	c := &stats.Counters{}
	results, err := s.sh.SearchTopKCancel(q.preference(nil), k, 0, tok, c)
	err = handBack(tok, err)
	tr.mark(stageTraverse)
	if err != nil {
		s.om.fail(opTopK)
		return nil, err
	}
	s.record(c, tr.stages[stageTraverse])
	tr.mark(stageMerge)
	s.om.finish(opTopK, &tr, c, 1)
	return appendRanking(make([]Assignment, 0, len(results)), q.id, results), nil
}

// appendRanking appends one query's ranked results to dst, labelled qid.
func appendRanking(dst []Assignment, qid int, rs []topk.Result) []Assignment {
	for _, r := range rs {
		dst = append(dst, Assignment{QueryID: qid, ObjectID: int(r.ID), Score: r.Score})
	}
	return dst
}

// batchChunk is how many queries a batched TopKMany request hands one
// shared-traversal searcher. Large enough that the tree's upper levels are
// read once for dozens of functions, small enough that chunks still fan out
// across workers and the blocked scoring kernels stay in cache.
const batchChunk = 64

// TopKMany answers independent top-k queries in query order, one result
// slice per query. The workload of the paper's serving framing: many users,
// one object set, every user wants their personal ranking — so instead of
// one ranked descent per query, queries are validated up front (the first
// invalid query, or a negative k, fails the whole batch), grouped into
// chunks of at most batchChunk, and each chunk walks the tree once through
// a shared-traversal batch searcher (topk.BatchSearcher; on a sharded
// server, sharded.SearchTopKBatch per shard). Results are bit-identical to
// per-query TopK calls; each chunk's results share one backing array, with
// every query's slice capped at its own length.
//
// Chunks are spread across workers goroutines (0 or negative means
// GOMAXPROCS). On a sharded server, workers is the total parallelism
// budget: it is spent on the per-chunk fan-out first, and whatever the
// chunk count leaves unused goes to each chunk's per-shard fan-out
// (workers=1 stays fully sequential).
func (s *Server) TopKMany(queries []Query, k, workers int) ([][]Assignment, error) {
	return s.topKMany(cancel.Token{}, queries, k, workers)
}

func (s *Server) topKMany(tok cancel.Token, queries []Query, k, workers int) (_ [][]Assignment, err error) {
	if err := s.admit(tok); err != nil {
		return nil, err
	}
	defer s.exitRequest()
	defer s.finishReq(opTopKMany, firstQID(queries), &err)
	sc, err := s.batchScratch(queries, k)
	if err != nil {
		return nil, err
	}
	defer s.releaseScratch(sc)
	results := make([][]Assignment, len(queries))
	if k == 0 {
		return results, nil
	}
	budget := workers
	if budget < 1 {
		budget = runtime.GOMAXPROCS(0)
	}
	chunks := (len(queries) + batchChunk - 1) / batchChunk
	shardWorkers := 1
	if s.sh != nil {
		if outer := clampWorkers(budget, chunks); outer > 0 && budget/outer > 1 {
			shardWorkers = budget / outer
		}
	}
	perQuery := min(k, s.ix.Len()) // sizes each chunk's buffer; growth is still safe
	cerrs := make([]error, chunks)
	fanOut(chunks, budget, func(ci int) {
		cerrs[ci] = guard.Safe(func() error {
			lo := ci * batchChunk
			hi := min(lo+batchChunk, len(queries))
			buf, offs, err := s.topKChunkAppend(tok, nil, make([]Assignment, 0, (hi-lo)*perQuery), make([]int, 0, hi-lo+1),
				queries[lo:hi], sc.fns[lo:hi], k, shardWorkers)
			if err != nil {
				return err
			}
			// 3-index slices: appending to one query's result reallocates
			// instead of overwriting its neighbour's.
			offs = append(offs, len(buf))
			for i := range results[lo:hi] {
				results[lo+i] = buf[offs[i]:offs[i+1]:offs[i+1]]
			}
			return nil
		})
	})
	if err := errors.Join(cerrs...); err != nil {
		return nil, err
	}
	return results, nil
}

// TopKManyAppend is the allocation-free form of TopKMany for callers that
// recycle their result buffers: all assignments are appended flat to dst,
// and offsets is appended one entry per query plus a final boundary, so
// query i's ranking is dst[offsets[base+i]:offsets[base+i+1]] (base being
// len(offsets) on entry). The whole batch — at most batchChunk queries at a
// time — shares traversals exactly like TopKMany, and is validated exactly
// like it; query weights are normalised into a pooled arena
// (prefs.AppendFunction) instead of fresh slices, so a steady-state call
// over the memory backend performs zero allocations once dst and offsets
// have grown to capacity. The batch runs on the calling goroutine.
func (s *Server) TopKManyAppend(dst []Assignment, offsets []int, queries []Query, k int) ([]Assignment, []int, error) {
	return s.topKManyAppend(cancel.Token{}, dst, offsets, queries, k)
}

// topKManyAppend is TopKManyAppend behind the admission gate. The gate and
// the deferred classifier are both allocation-free (fixed-site defers, an
// atomic-and-channel admit), so the gated path stays at zero allocations —
// the CI alloc gate pins this with a MaxInFlight server and a live context.
func (s *Server) topKManyAppend(tok cancel.Token, dst []Assignment, offsets []int, queries []Query, k int) (_ []Assignment, _ []int, err error) {
	if err := s.admit(tok); err != nil {
		return dst, offsets, err
	}
	defer s.exitRequest()
	defer s.finishReq(opTopKMany, firstQID(queries), &err)
	sc, err := s.batchScratch(queries, k)
	if err != nil {
		return dst, offsets, err
	}
	defer s.releaseScratch(sc)
	if k == 0 {
		for range queries {
			offsets = append(offsets, len(dst))
		}
	}
	for lo := 0; k > 0 && lo < len(queries); lo += batchChunk {
		hi := min(lo+batchChunk, len(queries))
		dst, offsets, err = s.topKChunkAppend(tok, sc, dst, offsets, queries[lo:hi], sc.fns[lo:hi], k, 1)
		if err != nil {
			return dst, offsets, err
		}
	}
	return dst, append(offsets, len(dst)), nil
}

// batchScratch is the one validation pass of a batched top-k request: every
// query in checkLinear's order, each normalised into a pooled scratch's
// arena as it passes, then k; the first failure is the request's error. On
// success the caller owns the scratch — its fns hold the batch's functions
// boxed by pointer — and releases it once the batch is answered.
func (s *Server) batchScratch(queries []Query, k int) (*serveScratch, error) {
	vstart := time.Now()
	sc := s.acquireScratch()
	d := s.ix.Dim()
	var err error
	for _, q := range queries {
		if err = checkLinear(q, d); err != nil {
			break
		}
		sc.linear(q)
	}
	if err == nil {
		err = checkK(k)
	}
	if err != nil {
		s.releaseScratch(sc)
		s.om.fail(opTopKMany)
		return nil, err
	}
	// Box pointers, not values: *Function rides in the interface word, so a
	// warm scratch builds the whole batch without a single allocation. Taken
	// only after fnvals stops growing — appends may move the backing array.
	for i := range sc.fnvals {
		sc.fns = append(sc.fns, &sc.fnvals[i])
	}
	// Chunks trace themselves; the call-level validation pass is observed
	// into the stage histogram here, once.
	s.om.stages[stageValidate].ObserveDuration(time.Since(vstart))
	return sc, nil
}

// topKChunkAppend answers one chunk of validated queries with a single
// shared traversal, appending each query's start to offsets and its ranking
// to dst (the caller appends the final boundary). On a sharded server the
// chunk fans across shards batched, each surviving shard walked once for
// the whole chunk by up to shardWorkers workers; otherwise a pooled batch
// searcher walks sc's snapshot — or, with a nil sc, a snapshot pinned for
// this chunk alone.
func (s *Server) topKChunkAppend(tok cancel.Token, sc *serveScratch, dst []Assignment, offsets []int, queries []Query, fns []prefs.Preference, k, shardWorkers int) ([]Assignment, []int, error) {
	var tr reqTrace
	tr.begin(0)
	var c *stats.Counters
	var err error
	if s.sh != nil {
		c = &stats.Counters{}
		var res [][]topk.Result
		res, err = s.sh.SearchTopKBatchCancel(fns, k, shardWorkers, tok, c)
		if err = handBack(tok, err); err == nil {
			for i, rs := range res {
				offsets = append(offsets, len(dst))
				dst = appendRanking(dst, queries[i].ID, rs)
			}
		}
	} else {
		if sc == nil {
			sc = s.acquireScratch()
			defer s.releaseScratch(sc)
			tr.mark(stagePin)
		}
		c = &sc.c
		sc.ks = sc.ks[:0]
		for range fns {
			sc.ks = append(sc.ks, k)
		}
		b := topk.AcquireBatchSearcher(sc.snap, fns, sc.ks, c)
		defer b.Release()
		b.SetCancel(tok)
		if err = handBack(tok, b.Run()); err == nil {
			for i := range fns {
				sc.rbuf = b.AppendResults(i, sc.rbuf[:0])
				offsets = append(offsets, len(dst))
				dst = appendRanking(dst, queries[i].ID, sc.rbuf)
			}
		}
	}
	tr.mark(stageTraverse)
	if err != nil {
		s.om.fail(opTopKMany)
		return dst, offsets, err
	}
	s.recordN(c, tr.stages[stageTraverse], len(queries))
	tr.mark(stageMerge)
	s.om.finish(opTopKMany, &tr, c, len(queries))
	// A caller's scratch serves every chunk of its batch: zero the sink so
	// the next chunk's recordN does not re-add this chunk's work.
	*c = stats.Counters{}
	return dst, offsets, nil
}

// Skyline returns the ascending IDs of the non-dominated objects, computed
// over a snapshot. Safe for concurrent use.
func (s *Server) Skyline() ([]int, error) {
	return s.skyline(cancel.Token{})
}

func (s *Server) skyline(tok cancel.Token) (_ []int, err error) {
	if err := s.admit(tok); err != nil {
		return nil, err
	}
	defer s.exitRequest()
	defer s.finishReq(opSkyline, -1, &err)
	return serve(s, opSkyline, tok, 0, func(sc *serveScratch) ([]int, error) {
		return skylineOver(sc.snap, tok, &sc.c)
	})
}

// clampWorkers normalises a worker-count option against a job count: zero
// or negative means GOMAXPROCS, and more workers than jobs is clamped to
// jobs, so no spawned goroutine can be idle from the start. The single
// place this package interprets worker counts — MatchMany, TopKMany and
// fanOut all route through it and must not re-derive the rule.
// (sharded.SearchTopK applies the same rule to its own shard-level
// workers; the two budgets never nest, see TopKMany.)
func clampWorkers(workers, jobs int) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	return workers
}

// fanOut runs jobs 0..n-1 across workers goroutines (normalised by
// clampWorkers), pulling indices from a shared atomic cursor so fast
// workers absorb slow jobs.
func fanOut(n, workers int, job func(int)) {
	workers = clampWorkers(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				job(i)
			}
		}()
	}
	wg.Wait()
}
