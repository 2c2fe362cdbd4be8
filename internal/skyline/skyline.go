// Package skyline implements the skyline machinery of the SB matcher:
//
//   - ComputeSkyline: the BBS algorithm of Papadias et al. (reference [5] of
//     the paper) — a best-first R-tree traversal on distance to the best
//     corner that visits only the non-dominated portion of the tree;
//   - pruned-entry bookkeeping (§ IV-B): every entry discarded because a
//     skyline object dominates it is appended to that object's plist, and
//     each pruned entry lives in exactly one plist;
//   - UpdateSkyline (§ IV-B): when skyline objects are removed (assigned to
//     functions), their plists are redistributed — entries dominated by a
//     surviving skyline object move to its plist, the rest are en-heaped
//     into the candidate set Scand and BBS resumes from there.
//
// Two alternative maintenance modes reproduce the baselines the paper argues
// against: re-running BBS from scratch after every removal, and re-running
// the constrained traversal of [5] (pruning with the surviving skyline but
// without plists). All modes produce identical skylines; they differ only in
// I/O, which is exactly what the ablation benchmarks measure.
//
// Layout. Every dominance test asks whether some current member dominates
// an entry's best point, so the Maintainer keeps its members' coordinates
// in a dim-strided slab beside the member list, in the same order, and
// answers each test with one vec.FirstDominator scan of that slab. Heap
// elements and plist entries keep only what the traversal reads: the best
// point (an object, or a node MBR's Hi corner), its heap key, and the
// object ID or child page. The lower MBR corner is never read, so entries
// do not carry it.
package skyline

import (
	"fmt"
	"math"

	"prefmatch/internal/cancel"
	"prefmatch/internal/index"
	"prefmatch/internal/pagedfile"
	"prefmatch/internal/pqueue"
	"prefmatch/internal/stats"
	"prefmatch/internal/vec"
)

// Mode selects the skyline maintenance strategy.
type Mode int

const (
	// MaintainPlist is the paper's contribution (§ IV-B): pruned-entry lists
	// make updates touch only the region exclusively dominated by the
	// removed objects.
	MaintainPlist Mode = iota
	// MaintainRetraverse re-runs the constrained BBS traversal of [5] from
	// the root after each removal, pruning with the surviving skyline but
	// keeping no plists.
	MaintainRetraverse
	// MaintainRecompute recomputes the skyline from scratch after each
	// removal ("unacceptably expensive", § IV-B).
	MaintainRecompute
)

// String names the mode for benchmark labels.
func (m Mode) String() string {
	switch m {
	case MaintainPlist:
		return "plist"
	case MaintainRetraverse:
		return "retraverse"
	case MaintainRecompute:
		return "recompute"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Object is a current skyline member together with its pruned-entry list.
type Object struct {
	ID    index.ObjID
	Point vec.Point
	Sum   float64 // cached coordinate sum (tie-break key)

	plist []item
}

// PlistLen reports the number of entries currently parked under this object
// (diagnostic / test hook).
func (o *Object) PlistLen() int { return len(o.plist) }

// item is a BBS heap element or plist member: either an R-tree node entry or
// an individual object. Dominance and the heap key read only an entry's
// best point — the object itself, or a node MBR's Hi corner — so that is
// all an item keeps (48 bytes on 64-bit platforms).
type item struct {
	dist  float64          // L1 distance of best to the best corner
	best  vec.Point        // the best point the entry can contain
	id    index.ObjID      // objects
	page  pagedfile.PageID // nodes
	isObj bool
}

// rootItem wraps the root page in an item with an unbounded best corner: it
// can never be dominated and its -Inf key pops it first, so the true root
// MBR does not need to be known before the first read.
func rootItem(page pagedfile.PageID, dim int) item {
	best := make(vec.Point, dim)
	for i := range best {
		best[i] = math.Inf(1)
	}
	return item{dist: math.Inf(-1), best: best, page: page}
}

// less orders the BBS heap: ascending distance to the best corner; ties are
// broken deterministically (nodes before objects, then page / object ID).
// Correctness only needs the distance order — if p dominates q then
// dist(p) < dist(q), so no later pop can dominate an earlier one.
func less(a, b item) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.isObj != b.isObj {
		return !a.isObj
	}
	if !a.isObj {
		return a.page < b.page
	}
	return a.id < b.id
}

// Maintainer owns the current skyline of the live objects in an R-tree and
// keeps it consistent as objects are removed by the matcher.
type Maintainer struct {
	tree index.ObjectIndex
	c    *stats.Counters
	mode Mode
	dim  int
	tok  cancel.Token

	sky []*Object
	// pts holds the members' coordinates in sky order, dim-strided: member
	// i is pts[i*dim:(i+1)*dim]. Every dominance test scans it.
	pts      []float64
	index    map[index.ObjID]int // object ID -> position in sky
	excluded map[index.ObjID]bool
	computed bool

	// frontier is the reusable BBS heap scratch. Compute and every Remove
	// mode run one traversal at a time, so a single queue serves all call
	// sites; Reset keeps the backing array, so the Remove calls reuse the
	// heap Compute grew. A maintainer serves one wave (Server.Match builds
	// a new one per wave), so the heap is not reused across waves.
	frontier pqueue.Queue[item]

	// refDominator, when set, replaces the slab scan in dominator. Tests
	// set it to the member-by-member Dominates loop the scan must match.
	refDominator func(p vec.Point) *Object
}

// New creates a maintainer over t. A nil counters uses the tree's.
func New(t index.ObjectIndex, mode Mode, c *stats.Counters) *Maintainer {
	if c == nil {
		c = t.Counters()
	}
	m := &Maintainer{
		tree:     t,
		c:        c,
		mode:     mode,
		dim:      t.Dim(),
		index:    map[index.ObjID]int{},
		excluded: map[index.ObjID]bool{},
	}
	m.frontier.Init(less)
	return m
}

// SetCancel arms tok on the maintainer: the traversal checks it after every
// node read, in Compute and in every Remove mode, and stops with the
// token's error once it has fired. The zero Token disarms it.
func (m *Maintainer) SetCancel(tok cancel.Token) { m.tok = tok }

// heap returns the maintainer's scratch queue, emptied and charging to the
// maintainer's counters, ready for one BBS traversal.
func (m *Maintainer) heap() *pqueue.Queue[item] {
	m.frontier.Reset()
	m.frontier.SetCounters(m.c)
	return &m.frontier
}

// Skyline returns the current skyline in a deterministic (discovery) order.
// Callers must not mutate the slice.
func (m *Maintainer) Skyline() []*Object { return m.sky }

// Size returns the current skyline cardinality.
func (m *Maintainer) Size() int { return len(m.sky) }

// Computed reports whether the initial computation has run.
func (m *Maintainer) Computed() bool { return m.computed }

// Compute runs the initial BBS pass over the whole tree (Algorithm 1,
// line 4) and records pruned entries into plists.
func (m *Maintainer) Compute() error {
	m.reset()
	h := m.heap()
	if root := m.tree.RootPage(); root != pagedfile.InvalidPage {
		h.Push(rootItem(root, m.dim))
	}
	if err := m.run(h, m.mode != MaintainPlist, nil); err != nil {
		return err
	}
	m.computed = true
	m.c.ObserveSkylineSize(len(m.sky))
	return nil
}

// Remove deletes the given objects from the skyline (they have been matched)
// and restores the skyline of the remaining live objects, per the configured
// mode. It returns the newly promoted skyline objects so the matcher can
// refresh its caches. All ids must currently be skyline members.
func (m *Maintainer) Remove(ids []index.ObjID) (added []*Object, err error) {
	if !m.computed {
		return nil, fmt.Errorf("skyline: Remove before Compute")
	}
	if len(ids) == 0 {
		return nil, nil
	}
	m.c.SkylineUpdates++
	removed := make([]*Object, 0, len(ids))
	for _, id := range ids {
		pos, ok := m.index[id]
		if !ok {
			return nil, fmt.Errorf("skyline: object %d is not a skyline member", id)
		}
		removed = append(removed, m.sky[pos])
		m.excluded[id] = true
	}
	// Compact the skyline slice, preserving order.
	drop := make(map[index.ObjID]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	kept, keptPts := m.sky[:0], m.pts[:0]
	for i, s := range m.sky {
		if !drop[s.ID] {
			kept = append(kept, s)
			keptPts = append(keptPts, m.pts[i*m.dim:(i+1)*m.dim]...)
		}
	}
	m.sky, m.pts = kept, keptPts
	m.index = make(map[index.ObjID]int, len(m.sky))
	for i, s := range m.sky {
		m.index[s.ID] = i
	}

	before := len(m.sky)
	switch m.mode {
	case MaintainPlist:
		// Redistribute the removed objects' plists (§ IV-B): entries
		// dominated by a survivor move to its plist; the rest — exclusively
		// dominated by the removed objects — form the candidate heap Scand.
		scand := m.heap()
		for _, r := range removed {
			for _, e := range r.plist {
				if owner := m.dominator(e.best); owner != nil {
					owner.plist = append(owner.plist, e)
				} else {
					scand.Push(e)
				}
			}
			r.plist = nil
		}
		if err := m.run(scand, false, nil); err != nil {
			return nil, err
		}
	case MaintainRetraverse:
		// Constrained re-traversal of [5]: restart from the root, prune
		// with the surviving skyline, skip already-known members.
		h := m.heap()
		if root := m.tree.RootPage(); root != pagedfile.InvalidPage {
			h.Push(rootItem(root, m.dim))
		}
		known := make(map[index.ObjID]bool, len(m.sky))
		for _, s := range m.sky {
			known[s.ID] = true
		}
		if err := m.run(h, true, known); err != nil {
			return nil, err
		}
	case MaintainRecompute:
		// Full recomputation from scratch. Report as "added" only the
		// objects that were not skyline members before this call.
		prev := make(map[index.ObjID]bool, len(m.sky))
		for _, s := range m.sky {
			prev[s.ID] = true
		}
		m.reset()
		h := m.heap()
		if root := m.tree.RootPage(); root != pagedfile.InvalidPage {
			h.Push(rootItem(root, m.dim))
		}
		if err := m.run(h, true, nil); err != nil {
			return nil, err
		}
		m.c.ObserveSkylineSize(len(m.sky))
		var fresh []*Object
		for _, s := range m.sky {
			if drop[s.ID] {
				return nil, fmt.Errorf("skyline: removed object %d resurfaced", s.ID)
			}
			if !prev[s.ID] {
				fresh = append(fresh, s)
			}
		}
		return fresh, nil
	}
	m.c.ObserveSkylineSize(len(m.sky))
	return m.sky[before:], nil
}

// run executes the BBS loop: pop items in ascending best-corner distance;
// attach dominated items to their dominator's plist (unless skipPlist);
// promote surviving objects to the skyline; expand surviving nodes.
// known, when non-nil, marks object IDs that are already skyline members and
// must not be re-added (used by the re-traversal mode).
func (m *Maintainer) run(h *pqueue.Queue[item], skipPlist bool, known map[index.ObjID]bool) error {
	for {
		it, ok := h.Pop()
		if !ok {
			return nil
		}
		if it.isObj && m.excluded[it.id] {
			continue
		}
		if it.isObj && known != nil && known[it.id] {
			continue
		}
		if owner := m.dominator(it.best); owner != nil {
			if !skipPlist {
				owner.plist = append(owner.plist, it)
			}
			continue
		}
		if it.isObj {
			s := &Object{ID: it.id, Point: it.best, Sum: it.best.Sum()}
			m.index[s.ID] = len(m.sky)
			m.sky = append(m.sky, s)
			m.pts = append(m.pts, it.best...)
			continue
		}
		n, err := m.tree.ReadNode(it.page)
		if err != nil {
			return err
		}
		if err := m.tok.Check("skyline.traverse"); err != nil {
			return err
		}
		if m.expandFlat(n, h, skipPlist) {
			continue
		}
		for i := 0; i < n.Len(); i++ {
			var child item
			if n.Leaf() {
				obj := n.Object(i)
				if m.excluded[obj.ID] {
					continue
				}
				child = item{dist: obj.Point.BestCornerDist(), best: obj.Point, id: obj.ID, isObj: true}
			} else {
				r := n.Rect(i)
				child = item{dist: r.BestCornerDist(), best: r.Hi, page: n.ChildPage(i)}
			}
			if owner := m.dominator(child.best); owner != nil {
				if !skipPlist {
					owner.plist = append(owner.plist, child)
				}
				continue
			}
			h.Push(child)
		}
	}
}

// expandFlat is the columnar-storage fast path of the BBS expansion loop:
// when the backend exposes flat node payloads (index.FlatLeaf /
// index.FlatInternal — the memory backend does), the entry points and MBR
// corners are read straight off the dim-strided slabs, with one interface
// assertion per node instead of an Object/Rect dispatch per entry. The heap
// keys are computed by the same Point.BestCornerDist accumulation as the
// generic path, so the traversal (and every tie-break) is bit-identical.
// Reports false when the node has no flat payload.
func (m *Maintainer) expandFlat(n index.Node, h *pqueue.Queue[item], skipPlist bool) bool {
	d := m.tree.Dim()
	if n.Leaf() {
		fl, ok := n.(index.FlatLeaf)
		if !ok {
			return false
		}
		ids, pts := fl.FlatItems()
		for i, id := range ids {
			if m.excluded[id] {
				continue
			}
			p := vec.Point(pts[i*d : i*d+d : i*d+d])
			child := item{dist: p.BestCornerDist(), best: p, id: id, isObj: true}
			if owner := m.dominator(p); owner != nil {
				if !skipPlist {
					owner.plist = append(owner.plist, child)
				}
				continue
			}
			h.Push(child)
		}
		return true
	}
	fi, ok := n.(index.FlatInternal)
	if !ok {
		return false
	}
	_, hi := fi.FlatRects()
	for i := 0; i < n.Len(); i++ {
		hiP := vec.Point(hi[i*d : i*d+d : i*d+d])
		child := item{dist: hiP.BestCornerDist(), best: hiP, page: n.ChildPage(i)}
		if owner := m.dominator(hiP); owner != nil {
			if !skipPlist {
				owner.plist = append(owner.plist, child)
			}
			continue
		}
		h.Push(child)
	}
	return true
}

// reset empties the skyline for a traversal from the root.
func (m *Maintainer) reset() {
	m.sky, m.pts = m.sky[:0], m.pts[:0]
	m.index = map[index.ObjID]int{}
}

// dominator returns the first current skyline object dominating p, or nil,
// charging one dominance check per member tested.
func (m *Maintainer) dominator(p vec.Point) *Object {
	if m.refDominator != nil {
		return m.refDominator(p)
	}
	i := vec.FirstDominator(m.pts, m.dim, p)
	if i < 0 {
		m.c.DominanceChecks += int64(len(m.sky))
		return nil
	}
	m.c.DominanceChecks += int64(i + 1)
	return m.sky[i]
}
