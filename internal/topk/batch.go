// Batched shared-traversal ranked search: one best-first descent of the
// R-tree answers top-k for a whole batch of preference functions. This is the
// paper's shared-work thesis applied to the serving path — a wave of Q
// functions used to descend the tree Q times, re-reading the same upper-level
// nodes Q times; a BatchSearcher reads each needed node once and scores all
// still-active functions against it with the blocked kernels of internal/vec.
//
// The shared frontier holds R-tree nodes only, keyed on the MAXIMUM upper
// bound over the functions the node can still help; objects are offered
// directly to the per-function result heaps at leaf expansion. Keys are
// non-increasing along any root-to-leaf path (an MBR's bound dominates its
// children's for every monotone preference, and the max of a shrinking set
// only shrinks), so the frontier pops in descending key order. That ordering
// makes per-function termination a local test: when the popped key B drops
// below function f's current k-th best score, no remaining entry can improve
// f, and f deactivates without closing the traversal; the search ends when
// every function is done, which is usually long before the frontier drains.
//
// Sharing node reads must not multiply scoring work: a node in the union of
// Q descents is usually relevant to only a few of the Q functions, and
// scoring all of them against it would trade Q-fold I/O savings for Q-fold
// CPU. Each frontier entry therefore carries the bitmask of functions the
// node was useful to when pushed — a byproduct of the bounds matrix the
// blocked kernel computes anyway — and expansion scores exactly the masked,
// still-active subset (a node whose subset has died is popped and dropped
// unread). Exclusion from the mask is permanent-by-monotonicity: a function
// whose k-th best already beat the node's bound at push time can only have
// improved since. Masks are exact for batches up to 64 functions — the
// serving layer's chunk size — and degrade to "every active function" for
// wider batches.
//
// A batch of one is the package's single-function top-k engine (AcquireTopK,
// behind Search, SearchAppend and Top1): the k-bounded result heap rejects a
// losing leaf object with one comparison, where the streaming Searcher pushes
// every scored object through its frontier.
//
// Results are bit-identical to Q independent streaming searches drained k
// deep: the kernels accumulate per (function, entry) in ascending coordinate
// order exactly like vec.Dot, the total order of Better makes each top-k set
// unique, and AppendResults drains each heap worst-first into the tail of the
// output so the final order is descending, as Next emits.
package topk

import (
	"math"
	"sync"

	"prefmatch/internal/cancel"
	"prefmatch/internal/index"
	"prefmatch/internal/pagedfile"
	"prefmatch/internal/pqueue"
	"prefmatch/internal/prefs"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// batchEntry is a shared-frontier entry: an R-tree node keyed on the largest
// upper bound among the functions the node was useful to at push time, with
// that useful set carried as a bitmask of batch positions (maskAll for
// batches wider than 64, where the mask degrades to the active set). Page
// order breaks ties for determinism.
type batchEntry struct {
	bound float64
	mask  uint64
	page  pagedfile.PageID
}

const maskAll = ^uint64(0)

func batchBetter(a, b batchEntry) bool {
	if a.bound != b.bound {
		return a.bound > b.bound
	}
	return a.page < b.page
}

// batchResult is one entry of a per-function result heap, with the coordinate
// sum cached so sifts never recompute it.
type batchResult struct {
	score float64
	sum   float64
	id    index.ObjID
	point vec.Point
}

// worseBatch reports whether a ranks strictly below b in the total result
// order of Better (lower score, then smaller sum, then larger ID). The
// per-function heaps are min-heaps under this order, so the root is always
// the k-th best — the eviction candidate and the pruning threshold.
func worseBatch(a, b batchResult) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	if a.sum != b.sum {
		return a.sum < b.sum
	}
	return a.id > b.id
}

func siftUp(h []batchResult, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worseBatch(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []batchResult, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && worseBatch(h[r], h[l]) {
			m = r
		}
		if !worseBatch(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// BatchSearcher answers top-k for a batch of preference functions in one
// shared best-first traversal. It is resettable and poolable: Reset (or
// ResetTopK for one function) rebinds it to a (tree, functions, ks) triple
// keeping every backing array, so a warmed searcher serves a steady stream
// of batches without allocating. The search is only valid while the
// underlying tree is not modified.
//
// Usage: Reset or ResetTopK (or AcquireBatchSearcher / AcquireTopK),
// optionally SetSkip, SetCancel and SetFloor, then Run once, then
// AppendResults (or Len and Pop) per function, then Release.
type BatchSearcher struct {
	tree index.ObjectIndex
	c    *stats.Counters

	// Per-function state, all indexed by position in the batch.
	fns    []prefs.Preference
	lins   []prefs.Function
	ks     []int
	heaps  [][]batchResult // min-heaps: root is the current k-th best
	active []bool

	floors []float64 // per-function score floor (SetFloor); -Inf when unarmed

	nActive   int
	allLinear bool // every function linear with matching dimensionality
	wide      bool // more than 64 functions: entry masks degrade to the active set
	d         int

	// Per-node packed weight rows: rebuilt at each expansion from the popped
	// entry's mask ∩ active, so the kernels pay only for the functions this
	// node can still serve.
	wnode   []float64
	nodeIdx []int

	// Kernel output scratch, sized to the widest node seen.
	scores []float64

	frontier pqueue.Queue[batchEntry]

	skip   func(index.ObjID) bool
	cancel cancel.Token // zero Token: never cancels
}

// NewBatchSearcher returns an unbound reusable batch searcher; call Reset
// before Run.
func NewBatchSearcher() *BatchSearcher {
	b := &BatchSearcher{}
	b.frontier.Init(batchBetter)
	return b
}

// Reset rebinds the searcher to a fresh batched search: function i wants its
// ks[i] best objects from t (a non-positive ks[i] asks for nothing). Work is
// charged to c (nil means the tree's own counters). fns and ks are copied, so
// the caller may reuse them immediately. Every backing array is retained.
func (b *BatchSearcher) Reset(t index.ObjectIndex, fns []prefs.Preference, ks []int, c *stats.Counters) {
	if len(fns) != len(ks) {
		panic("topk: batch functions and ks lengths differ")
	}
	b.fns = append(b.fns[:0], fns...)
	b.ks = append(b.ks[:0], ks...)
	b.start(t, c)
}

// ResetTopK is Reset for a batch of one: pref wants its k best objects. It
// is the single-function form every known-k search takes (Search,
// SearchAppend, Top1 and the serving layer's TopK and session walks), and
// it builds no slice, so a warmed searcher stays allocation-free.
func (b *BatchSearcher) ResetTopK(t index.ObjectIndex, pref prefs.Preference, k int, c *stats.Counters) {
	b.fns = append(b.fns[:0], pref)
	b.ks = append(b.ks[:0], k)
	b.start(t, c)
}

// start binds the searcher to t for the functions and ks already loaded
// into b.fns and b.ks, and seeds the frontier with the root.
func (b *BatchSearcher) start(t index.ObjectIndex, c *stats.Counters) {
	if c == nil {
		c = t.Counters()
	}
	n := len(b.fns)
	b.tree, b.c = t, c
	b.d = t.Dim()
	b.skip = nil
	b.cancel = cancel.Token{}
	b.lins = b.lins[:0]
	b.floors = b.floors[:0]
	b.allLinear = true
	for _, p := range b.fns {
		f, ok := prefs.Linear(p)
		if !ok || f.Dim() != b.d {
			// One odd function sends the whole batch down the generic path;
			// results are unchanged (Function.Score and the kernels agree
			// bit for bit), only the scoring loop shape differs.
			b.allLinear = false
		}
		b.lins = append(b.lins, f)
		b.floors = append(b.floors, math.Inf(-1))
	}
	for len(b.heaps) < n {
		b.heaps = append(b.heaps, nil)
	}
	b.heaps = b.heaps[:n]
	for len(b.active) < n {
		b.active = append(b.active, false)
	}
	b.active = b.active[:n]
	b.nActive = 0
	for i, k := range b.ks {
		h := b.heaps[i]
		clear(h[:cap(h)])
		b.heaps[i] = h[:0]
		b.active[i] = k > 0
		if b.active[i] {
			b.nActive++
		}
	}
	b.wide = n > 64
	b.frontier.Reset()
	b.frontier.SetCounters(c)
	c.Top1Searches += int64(n)
	if b.nActive > 0 {
		if root := t.RootPage(); root != pagedfile.InvalidPage {
			root64 := maskAll
			if !b.wide {
				root64 = uint64(1)<<uint(n) - 1
			}
			b.frontier.Push(batchEntry{bound: inf, mask: root64, page: root})
		}
	}
}

// SetSkip installs a logical-removal filter: objects for which skip returns
// true are invisible to every function of the batch. Call between Reset and
// Run. The incremental matching sources use it to search a tree whose
// deletions are recorded out of band.
func (b *BatchSearcher) SetSkip(skip func(index.ObjID) bool) { b.skip = skip }

// SetCancel arms cooperative cancellation for the batch: Run checks the
// token before its first node read and immediately after every node read,
// and aborts the whole batch with the token's stage-tagged error. The
// post-read check is what makes a deadline that passes during a slow read
// fail the search even when that read was the last one it needed. Call
// between Reset and Run; Reset and Release disarm it. The zero Token never
// cancels and costs one nil comparison per node.
func (b *BatchSearcher) SetCancel(t cancel.Token) { b.cancel = t }

// SetFloor arms function f with a proven lower bound on the scores it will
// accept: objects scoring strictly below floor are never offered to f, and
// nodes whose bound for f is strictly below it are never pushed or read for
// f. The caller must guarantee floor does not exceed f's true k-th best
// score (e.g. the re-scored k-th of k objects known to be live in the same
// tree, or the k-th of results already merged from another partition);
// then f's results are bit-identical to an unfloored search, only cheaper.
// A floor above the true k-th leaves f with fewer than k results, each
// still exact. Call between Reset and Run; Reset disarms every floor.
func (b *BatchSearcher) SetFloor(f int, floor float64) { b.floors[f] = floor }

// batchPool recycles warmed batch searchers across requests and goroutines,
// exactly like searcherPool for streams.
var batchPool = sync.Pool{New: func() any { return NewBatchSearcher() }}

// AcquireBatchSearcher returns a pooled batch searcher already Reset for
// (t, fns, ks, c). The caller must Release it afterwards.
func AcquireBatchSearcher(t index.ObjectIndex, fns []prefs.Preference, ks []int, c *stats.Counters) *BatchSearcher {
	b := batchPool.Get().(*BatchSearcher)
	b.Reset(t, fns, ks, c)
	return b
}

// AcquireTopK returns a pooled searcher already ResetTopK for
// (t, pref, k, c): the k-bounded top-k engine for one function. The caller
// must Release it afterwards.
func AcquireTopK(t index.ObjectIndex, pref prefs.Preference, k int, c *stats.Counters) *BatchSearcher {
	b := batchPool.Get().(*BatchSearcher)
	b.ResetTopK(t, pref, k, c)
	return b
}

// Release drops every reference the searcher holds (so a pooled searcher
// cannot pin a tree, an arena slab, or a caller's weights) and returns it to
// the pool.
func (b *BatchSearcher) Release() {
	b.tree, b.c, b.skip = nil, nil, nil
	b.cancel = cancel.Token{}
	clear(b.fns)
	b.fns = b.fns[:0]
	clear(b.lins)
	b.lins = b.lins[:0]
	for i := range b.heaps {
		h := b.heaps[i]
		clear(h[:cap(h)])
		b.heaps[i] = h[:0]
	}
	b.frontier.Reset()
	b.frontier.SetCounters(nil)
	batchPool.Put(b)
}

// useful reports whether an entry with the given upper bound can still change
// function f's result set: the bound reaches f's floor, and the heap is not
// full or the bound reaches the k-th best score (an equal score can still
// win on the sum/ID tie-break, so both comparisons are non-strict).
func (b *BatchSearcher) useful(f int, bound float64) bool {
	if bound < b.floors[f] {
		return false
	}
	h := b.heaps[f]
	return len(h) < b.ks[f] || bound >= h[0].score
}

// offer proposes an object to function f's heap, evicting the current k-th
// best when the candidate beats it under the total order.
func (b *BatchSearcher) offer(f int, score, sum float64, id index.ObjID, point vec.Point) {
	h := b.heaps[f]
	if len(h) < b.ks[f] {
		h = append(h, batchResult{score: score, sum: sum, id: id, point: point})
		siftUp(h, len(h)-1)
		b.heaps[f] = h
		return
	}
	cand := batchResult{score: score, sum: sum, id: id, point: point}
	if worseBatch(h[0], cand) {
		h[0] = cand
		siftDown(h, 0)
	}
}

// selectNode rebuilds nodeIdx (and, for linear batches, the packed weight
// rows) as the masked still-active subset of the batch — the functions the
// popped node can still serve. Returns false when the subset is empty, in
// which case the node need not even be read.
func (b *BatchSearcher) selectNode(mask uint64) bool {
	b.nodeIdx = b.nodeIdx[:0]
	for f, a := range b.active {
		if a && (b.wide || mask&(uint64(1)<<uint(f)) != 0) {
			b.nodeIdx = append(b.nodeIdx, f)
		}
	}
	if len(b.nodeIdx) == 0 {
		return false
	}
	if b.allLinear {
		b.wnode = b.wnode[:0]
		for _, f := range b.nodeIdx {
			b.wnode = append(b.wnode, b.lins[f].Weights...)
		}
	}
	return true
}

// growF resizes a float scratch slice to n values, reusing its array.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Run executes the shared traversal to completion. After Run returns, the
// per-function heaps hold each function's top-k; collect them with
// AppendResults. Run is single-use per Reset.
func (b *BatchSearcher) Run() error {
	if err := b.cancel.Check("topk.traverse"); err != nil {
		return err
	}
	for b.nActive > 0 {
		top, ok := b.frontier.Pop()
		if !ok {
			return nil
		}
		// The frontier pops in descending key order, so top.bound caps every
		// remaining entry: any function whose k-th best already beats it is
		// finished for good.
		for f, a := range b.active {
			if a && !b.useful(f, top.bound) {
				b.active[f] = false
				b.nActive--
			}
		}
		if b.nActive == 0 {
			return nil
		}
		if !b.selectNode(top.mask) {
			// Every function this node was pushed for has since finished;
			// for the rest it was already useless at push time. Skip the
			// read entirely.
			continue
		}
		n, err := b.tree.ReadNode(top.page)
		if err != nil {
			return err
		}
		if err := b.cancel.Check("topk.traverse"); err != nil {
			return err
		}
		b.c.NodesVisited++
		if b.allLinear && b.expandLinearBatch(n) {
			continue
		}
		b.expandGeneric(n)
	}
	return nil
}

// expandLinearBatch scores the node's entries for the masked subset of
// functions (nodeIdx/wnode, built by selectNode) with one blocked kernel
// call over the backend's flat slabs. It reports false when the node does
// not expose flat storage (the caller falls back to the generic path).
func (b *BatchSearcher) expandLinearBatch(n index.Node) bool {
	nsel, d := len(b.nodeIdx), b.d
	if n.Leaf() {
		fl, ok := n.(index.FlatLeaf)
		if !ok {
			return false
		}
		ids, pts := fl.FlatItems()
		m := len(ids)
		b.scores = growF(b.scores, nsel*m)
		vec.DotBatch(b.wnode, nsel, d, pts, b.scores)
		b.c.ScoreEvals += int64(nsel * m)
		// Function-major: each function scans its own contiguous score row,
		// and the overwhelmingly common case — a full heap whose k-th best
		// strictly beats the candidate, or a score below the floor — is
		// rejected inline without building a result (equal scores fall
		// through to offer for the tie-break). The coordinate sum is needed
		// only by the rare candidate that gets that far, so it is computed
		// there rather than for every point.
		for r, f := range b.nodeIdx {
			row := b.scores[r*m : r*m+m : r*m+m]
			k, floor := b.ks[f], b.floors[f]
			for i, sc := range row {
				if h := b.heaps[f]; sc < floor || len(h) == k && h[0].score > sc {
					continue
				}
				id := ids[i]
				if b.skip != nil && b.skip(id) {
					continue
				}
				p := vec.Point(pts[i*d : i*d+d : i*d+d])
				b.offer(f, sc, p.Sum(), id, p)
			}
		}
		return true
	}
	fi, ok := n.(index.FlatInternal)
	if !ok {
		return false
	}
	_, hi := fi.FlatRects() // monotone bound over an MBR needs the top corner only
	m := n.Len()
	b.scores = growF(b.scores, nsel*m)
	vec.MBRBoundsBatch(b.wnode, nsel, d, hi, b.scores)
	b.c.ScoreEvals += int64(nsel * m)
	for i := 0; i < m; i++ {
		key, any := 0.0, false
		var mask uint64
		for r, f := range b.nodeIdx {
			if bd := b.scores[r*m+i]; b.useful(f, bd) {
				if !any || bd > key {
					key = bd
				}
				any = true
				mask |= uint64(1) << (uint(f) & 63)
			}
		}
		if any {
			if b.wide {
				mask = maskAll
			}
			b.frontier.Push(batchEntry{bound: key, mask: mask, page: n.ChildPage(i)})
		}
	}
	return true
}

// expandGeneric scores the node's entries for the masked subset of functions
// through the prefs.Preference interface — the path for monotone non-linear
// preferences, dimension-mismatched batches, and backends without flat
// storage.
func (b *BatchSearcher) expandGeneric(n index.Node) {
	if n.Leaf() {
		for i := 0; i < n.Len(); i++ {
			it := n.Object(i)
			if b.skip != nil && b.skip(it.ID) {
				continue
			}
			sum := it.Point.Sum()
			for _, f := range b.nodeIdx {
				b.c.ScoreEvals++
				sc := b.fns[f].Score(it.Point)
				if sc < b.floors[f] {
					continue
				}
				b.offer(f, sc, sum, it.ID, it.Point)
			}
		}
		return
	}
	for i := 0; i < n.Len(); i++ {
		r := n.Rect(i)
		key, any := 0.0, false
		var mask uint64
		for _, f := range b.nodeIdx {
			b.c.ScoreEvals++
			if bd := b.fns[f].UpperBound(r); b.useful(f, bd) {
				if !any || bd > key {
					key = bd
				}
				any = true
				mask |= uint64(1) << (uint(f) & 63)
			}
		}
		if any {
			if b.wide {
				mask = maskAll
			}
			b.frontier.Push(batchEntry{bound: key, mask: mask, page: n.ChildPage(i)})
		}
	}
}

// Len returns the number of results collected for function f (at most ks[f],
// fewer when the tree holds fewer visible objects). Valid after Run, before
// AppendResults drains the heap.
func (b *BatchSearcher) Len(f int) int { return len(b.heaps[f]) }

// Pop removes and returns function f's worst remaining result — its
// current k-th best — so Len(f) successive Pops yield f's results in
// ascending preference order. Valid after Run; Pop on an empty heap
// panics.
func (b *BatchSearcher) Pop(f int) Result {
	h := b.heaps[f]
	r := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = batchResult{} // drop the point reference
	h = h[:last]
	if last > 0 {
		siftDown(h, 0)
	}
	b.heaps[f] = h
	return Result{ID: r.id, Point: r.point, Score: r.score}
}

// AppendResults appends function f's results to dst in descending preference
// order — the order Search emits — and returns the extended slice. It
// drains the heap worst-first into the tail of the output, so call it once
// per function after Run.
func (b *BatchSearcher) AppendResults(f int, dst []Result) []Result {
	m := len(b.heaps[f])
	base := len(dst)
	for i := 0; i < m; i++ {
		dst = append(dst, Result{})
	}
	for i := m - 1; i >= 0; i-- {
		dst[base+i] = b.Pop(f)
	}
	return dst
}

// SearchBatch answers top-k for every function in one shared traversal and
// returns one descending-order result slice per function. All functions share
// the same k; drive a BatchSearcher directly for mixed k values or buffer
// reuse.
func SearchBatch(t index.ObjectIndex, fns []prefs.Preference, k int, c *stats.Counters) ([][]Result, error) {
	if len(fns) == 0 {
		return nil, nil
	}
	ks := make([]int, len(fns))
	for i := range ks {
		ks[i] = k
	}
	b := AcquireBatchSearcher(t, fns, ks, c)
	defer b.Release()
	if err := b.Run(); err != nil {
		return nil, err
	}
	out := make([][]Result, len(fns))
	for f := range fns {
		out[f] = b.AppendResults(f, make([]Result, 0, b.Len(f)))
	}
	return out, nil
}
