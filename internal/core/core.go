// Package core implements the paper's problem — a stable 1-1 matching
// between a set F of preference functions and a set O of objects indexed by
// a disk R-tree — with all three evaluated algorithms:
//
//   - SB, the skyline-based matcher (§ III-B, § IV): maintains the skyline
//     of the remaining objects, finds best pairs with TA-based reverse top-1
//     searches, and emits multiple mutually-best pairs per loop;
//   - Brute Force (§ III-A): one cached top-1 per function, re-searched
//     whenever the function's best object is assigned to someone else;
//   - Chain (§ V): the adaptation of Wong et al.'s spatial matching, walking
//     best-partner chains between a main-memory R-tree over the function
//     weights and the object R-tree until a mutual pair is found.
//
// All matchers are progressive (stable pairs are emitted as soon as they are
// identified, like the paper's algorithms) and produce the identical
// matching, because they share the deterministic preference orders of
// package prefs.
package core

import (
	"errors"
	"fmt"

	"prefmatch/internal/cancel"
	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
)

// Pair is one stable function-object assignment.
type Pair struct {
	FuncID int         // external ID of the matched function
	ObjID  index.ObjID // ID of the matched object
	Score  float64     // f(o)
}

// String renders the pair for logs and examples.
func (p Pair) String() string {
	return fmt.Sprintf("(f%d, o%d, %.6f)", p.FuncID, p.ObjID, p.Score)
}

// Algorithm selects a matcher implementation.
type Algorithm int

const (
	// AlgSB is the paper's skyline-based algorithm.
	AlgSB Algorithm = iota
	// AlgBruteForce is the top-1-per-function baseline of § III-A.
	AlgBruteForce
	// AlgChain is the adaptation of Wong et al. [2] described in § V.
	AlgChain
	// AlgBruteForceIncremental is an improved Brute Force built on
	// resumable incremental ranked searches instead of restarted top-1
	// queries (see bfinc.go); provided as an ablation.
	AlgBruteForceIncremental
)

// String names the algorithm for benchmark labels.
func (a Algorithm) String() string {
	switch a {
	case AlgSB:
		return "SB"
	case AlgBruteForce:
		return "BruteForce"
	case AlgChain:
		return "Chain"
	case AlgBruteForceIncremental:
		return "BruteForceInc"
	default:
		return fmt.Sprintf("alg(%d)", int(a))
	}
}

// Options configures a matcher. The zero value selects SB with all the
// paper's optimisations enabled.
type Options struct {
	Algorithm Algorithm

	// SkylineMode selects SB's maintenance strategy (plist by default);
	// the alternatives exist for the ablation benchmarks.
	SkylineMode skyline.Mode

	// DisableMultiPair turns off § IV-C (reporting several stable pairs per
	// loop); ablation only.
	DisableMultiPair bool

	// DisableTightThreshold makes SB's TA use the naive threshold instead
	// of § IV-A's tight one; ablation only.
	DisableTightThreshold bool

	// ChainFanOut overrides the function R-tree fan-out used by Chain.
	ChainFanOut int

	// Capacities optionally assigns a capacity to objects (an object with
	// capacity k can be matched to k functions — e.g. a room type with k
	// identical rooms). Objects absent from the map have capacity 1.
	// Capacities extend the greedy model naturally: an object leaves the
	// pool only when its capacity is exhausted. All three algorithms
	// support them.
	Capacities map[index.ObjID]int

	// Counters receives all work accounting. When nil, the object tree's
	// counter sink is used.
	Counters *stats.Counters

	// Cancel is the request's cooperative cancellation token. When live,
	// the matcher checks it at the top of every Next call — the wave loop's
	// natural amortization point, one check per emitted pair — and SB's
	// skyline traversal checks it after every node read; either returns
	// the token's stage-tagged error. The zero Token never cancels.
	Cancel cancel.Token
}

// Matcher progressively emits stable pairs.
type Matcher interface {
	// Next returns the next stable pair; ok is false when the matching is
	// complete (one of the two sets is exhausted).
	Next() (p Pair, ok bool, err error)
	// Counters exposes the work accounting for this run.
	Counters() *stats.Counters
}

// ErrDimensionMismatch is returned when functions and objects disagree on D.
var ErrDimensionMismatch = errors.New("core: function/object dimensionality mismatch")

// NewMatcher builds the matcher selected by opts over the object index and
// function set. The function IDs must be unique (they identify users in the
// emitted pairs).
//
// The Brute Force and Chain matchers delete matched objects from the object
// index as they run — exactly as the paper describes — so the caller must
// rebuild or reload the index before reusing it. SB never modifies it.
//
// When opts.Counters is a different sink than the index's, the index's
// accounting is redirected to it for the duration of the run and restored
// to the original sink as soon as Next reports completion (or an error).
// A matcher abandoned before exhaustion leaves the redirect in place.
func NewMatcher(tree index.ObjectIndex, fns []prefs.Function, opts *Options) (Matcher, error) {
	if opts == nil {
		opts = &Options{}
	}
	if tree == nil {
		return nil, errors.New("core: nil object tree")
	}
	if err := validateMatchInputs(tree.Dim(), fns, opts); err != nil {
		return nil, err
	}
	c, prev := redirectCounters(tree, opts.Counters)
	var (
		inner Matcher
		err   error
	)
	switch opts.Algorithm {
	case AlgSB:
		inner, err = newSB(tree, fns, opts, c)
	case AlgBruteForce:
		inner, err = newBruteForce(tree, fns, opts, c)
	case AlgChain:
		inner, err = newChain(tree, fns, opts, c)
	case AlgBruteForceIncremental:
		inner, err = newBFIncremental(tree, fns, opts, c)
	default:
		err = fmt.Errorf("core: unknown algorithm %d", opts.Algorithm)
	}
	if err != nil {
		if prev != nil {
			tree.SetCounters(prev)
		}
		return nil, err
	}
	inner = wrapCancel(inner, opts.Cancel)
	if prev != nil {
		inner = &restoreMatcher{Matcher: inner, tree: tree, prev: prev}
	}
	return inner, nil
}

// wrapCancel arms the wave loop's cancellation checkpoint: every Next
// checks the token before doing any work. The wrapper sits inside
// restoreMatcher so a canceled run still restores the index's counter
// sink. A dead token wraps nothing.
func wrapCancel(m Matcher, tok cancel.Token) Matcher {
	if !tok.Live() {
		return m
	}
	return &cancelMatcher{Matcher: m, tok: tok}
}

type cancelMatcher struct {
	Matcher
	tok cancel.Token
}

func (m *cancelMatcher) Next() (Pair, bool, error) {
	if err := m.tok.Check("wave.next"); err != nil {
		return Pair{}, false, err
	}
	return m.Matcher.Next()
}

// redirectCounters points the index's accounting at the requested sink. It
// returns the sink the matcher should charge and, when a redirect actually
// happened, the index's previous sink (nil otherwise).
func redirectCounters(tree index.ObjectIndex, requested *stats.Counters) (c, prev *stats.Counters) {
	if requested == nil {
		return tree.Counters(), nil
	}
	if requested == tree.Counters() {
		return requested, nil
	}
	prev = tree.Counters()
	tree.SetCounters(requested)
	return requested, prev
}

// restoreMatcher reverts a counter redirect once the wrapped matcher
// completes, so that NewMatcher does not permanently hijack the index's
// accounting from its owner.
type restoreMatcher struct {
	Matcher
	tree index.ObjectIndex
	prev *stats.Counters
	done bool
}

func (m *restoreMatcher) Next() (Pair, bool, error) {
	p, ok, err := m.Matcher.Next()
	if (!ok || err != nil) && !m.done {
		m.done = true
		m.tree.SetCounters(m.prev)
	}
	return p, ok, err
}

// residual tracks per-object remaining capacity. take decrements and
// reports whether the object is now exhausted.
type residual struct {
	caps map[index.ObjID]int
}

func newResidual(capacities map[index.ObjID]int) *residual {
	r := &residual{caps: make(map[index.ObjID]int, len(capacities))}
	for id, c := range capacities {
		r.caps[id] = c
	}
	return r
}

func (r *residual) take(id index.ObjID) (exhausted bool) {
	c, ok := r.caps[id]
	if !ok {
		c = 1
	}
	c--
	if c <= 0 {
		delete(r.caps, id)
		return true
	}
	r.caps[id] = c
	return false
}

// MatchAll drains a matcher and returns all stable pairs in emission order.
func MatchAll(m Matcher) ([]Pair, error) {
	var out []Pair
	for {
		p, ok, err := m.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, p)
	}
}

// Match is the one-call convenience: build the matcher and drain it.
func Match(tree index.ObjectIndex, fns []prefs.Function, opts *Options) ([]Pair, error) {
	m, err := NewMatcher(tree, fns, opts)
	if err != nil {
		return nil, err
	}
	return MatchAll(m)
}
