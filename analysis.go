package prefmatch

import (
	"fmt"
	"sort"

	"prefmatch/internal/cancel"
	"prefmatch/internal/index"
	"prefmatch/internal/prefs"
	"prefmatch/internal/skyline"
	"prefmatch/internal/stats"
	"prefmatch/internal/topk"
	"prefmatch/internal/vec"
)

// This file exposes the two query primitives underneath the matcher as
// stand-alone operations, because they are useful on their own: the skyline
// of an object set (the candidates that can win under *some* monotone
// preference) and the top-k objects for a single preference query.
//
// The package-level functions build a throwaway index per call; Server
// offers the same primitives against an index built once, via the shared
// *Over helpers below.

// skylineOver computes the sorted skyline IDs of an already-built index.
// The token is checked once before the computation starts and after every
// node read of the walk, so a request canceled mid-compute stops within
// about one node expansion.
func skylineOver(tree index.ObjectIndex, tok cancel.Token, c *stats.Counters) ([]int, error) {
	if err := tok.Check("skyline.compute"); err != nil {
		return nil, err
	}
	m := skyline.New(tree, skyline.MaintainPlist, c)
	m.SetCancel(tok)
	if err := m.Compute(); err != nil {
		return nil, err
	}
	out := make([]int, 0, m.Size())
	for _, s := range m.Skyline() {
		out = append(out, int(s.ID))
	}
	sort.Ints(out)
	return out, nil
}

// topkOver runs k-bounded ranked search for a validated preference over an
// already-built index, labelling results with the query ID. The token is
// armed on the pooled engine, so a canceled request stops within about one
// node expansion. The returned slice is the only allocation.
func topkOver(tree index.ObjectIndex, qid int, p prefs.Preference, k int, tok cancel.Token, c *stats.Counters) ([]Assignment, error) {
	if k <= 0 {
		return nil, nil
	}
	b := topk.AcquireTopK(tree, p, k, c)
	defer b.Release()
	b.SetCancel(tok)
	if err := b.Run(); err != nil {
		return nil, err
	}
	out := make([]Assignment, b.Len(0))
	for i := len(out) - 1; i >= 0; i-- {
		r := b.Pop(0)
		out[i] = Assignment{QueryID: qid, ObjectID: int(r.ID), Score: r.Score}
	}
	return out, nil
}

// checkLinear validates a linear query against dimensionality d without
// building its function — its weights first, then their count; it
// allocates only on error.
func checkLinear(query Query, d int) error {
	if _, err := prefs.CheckWeights(query.Weights); err != nil {
		return fmt.Errorf("prefmatch: query %d: %w", query.ID, err)
	}
	if len(query.Weights) != d {
		return fmt.Errorf("prefmatch: query %d has %d weights, want %d", query.ID, len(query.Weights), d)
	}
	return nil
}

// checkK rejects a negative result depth.
func checkK(k int) error {
	if k < 0 {
		return fmt.Errorf("prefmatch: negative k %d", k)
	}
	return nil
}

// prefQuery is one single-query top-k request's preference as every entry
// point hands it to the request path: a linear query by its raw weights
// (validated, then normalised on the request path — into pooled scratch on
// a Server, so Server.TopK boxes nothing), or a monotone preference behind
// its adapter. err records why a preference could not be resolved at all;
// check reports it like any other validation failure.
type prefQuery struct {
	id      int
	weights []float64        // the linear query's weights; unused when mono is set
	mono    prefs.Preference // the monotone adapter; nil for a linear query
	err     error
}

// linearQuery and monotoneQuery are the typed entry points' conversions.
func linearQuery(q Query) prefQuery { return prefQuery{id: q.ID, weights: q.Weights} }

func monotoneQuery(q PreferenceQuery) prefQuery {
	if q.Preference == nil {
		return prefQuery{id: q.ID, err: fmt.Errorf("prefmatch: preference query %d is nil", q.ID)}
	}
	return prefQuery{id: q.ID, mono: prefAdapter{p: q.Preference}}
}

// check validates the request against dimensionality d and depth k, in the
// one order every top-k entry point reports: the preference first — a
// linear query in checkLinear's order — then k.
func (q prefQuery) check(d, k int) error {
	if q.err != nil {
		return q.err
	}
	if q.mono == nil {
		if err := checkLinear(Query{ID: q.id, Weights: q.weights}, d); err != nil {
			return err
		}
	}
	return checkK(k)
}

// preference returns a checked query's engine preference: the monotone
// adapter as is, or the linear function normalised into sc's arena — or,
// with a nil sc, into a fresh function.
func (q prefQuery) preference(sc *serveScratch) prefs.Preference {
	switch {
	case q.mono != nil:
		return q.mono
	case sc != nil:
		return sc.linear(Query{ID: q.id, Weights: q.weights})
	}
	f, _ := prefs.NewFunction(q.id, q.weights) // checked by the caller
	return &f
}

// Skyline returns the IDs of the objects not dominated by any other object:
// for every non-skyline object there is a skyline object at least as good
// in every attribute and strictly better in one. The result is the complete
// set of objects that can be the top-1 of some monotone preference.
// IDs are returned in ascending order.
func Skyline(objects []Object, opts *Options) ([]int, error) {
	if opts == nil {
		opts = &Options{}
	}
	if len(objects) == 0 {
		return nil, nil
	}
	d, items, _, err := convertObjectSet(objects)
	if err != nil {
		return nil, err
	}
	tree, c, err := buildIndex(items, d, opts)
	if err != nil {
		return nil, err
	}
	return skylineOver(tree, cancel.Token{}, c)
}

// TopK returns the k best objects for a single query, best first, using
// branch-and-bound ranked search over a bulk-loaded R-tree. Fewer than k
// results are returned when the object set is smaller.
func TopK(objects []Object, query Query, k int, opts *Options) ([]Assignment, error) {
	return topKFresh(objects, linearQuery(query), k, opts)
}

// TopKMonotone is TopK for an arbitrary monotone preference.
func TopKMonotone(objects []Object, query PreferenceQuery, k int, opts *Options) ([]Assignment, error) {
	return topKFresh(objects, monotoneQuery(query), k, opts)
}

// topKFresh answers q over a throwaway index bulk-loaded from objects,
// validated like Server.TopK once the objects are: the query against their
// dimensionality, then k. An empty object set has no dimensionality, so
// only the weights themselves are checked.
func topKFresh(objects []Object, q prefQuery, k int, opts *Options) ([]Assignment, error) {
	if opts == nil {
		opts = &Options{}
	}
	if len(objects) == 0 {
		return nil, q.check(len(q.weights), k)
	}
	d, items, _, err := convertObjectSet(objects)
	if err != nil {
		return nil, err
	}
	if err := q.check(d, k); err != nil || k == 0 {
		return nil, err
	}
	tree, c, err := buildIndex(items, d, opts)
	if err != nil {
		return nil, err
	}
	return topkOver(tree, q.id, q.preference(nil), k, cancel.Token{}, c)
}

// Dominates reports whether object a dominates object b: at least as good
// in every attribute and strictly better in at least one.
func Dominates(a, b Object) bool {
	if len(a.Values) != len(b.Values) || len(a.Values) == 0 {
		return false
	}
	return vec.Point(a.Values).Dominates(vec.Point(b.Values))
}
