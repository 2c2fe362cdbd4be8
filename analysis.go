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
// The token is checked once before the computation starts — the skyline
// walk is one indivisible pass, so a request canceled mid-compute finishes
// its pass and is classified on return.
func skylineOver(tree index.ObjectIndex, tok cancel.Token, c *stats.Counters) ([]int, error) {
	if err := tok.Check("skyline.compute"); err != nil {
		return nil, err
	}
	m := skyline.New(tree, skyline.MaintainPlist, c)
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
// building its function; it allocates only on error.
func checkLinear(query Query, d int) error {
	if _, err := prefs.CheckWeights(query.Weights); err != nil {
		return fmt.Errorf("prefmatch: query %d: %w", query.ID, err)
	}
	if len(query.Weights) != d {
		return fmt.Errorf("prefmatch: query %d has %d weights, want %d", query.ID, len(query.Weights), d)
	}
	return nil
}

// linearPref validates a linear query against dimensionality d and builds
// its normalised function.
func linearPref(query Query, d int) (prefs.Function, error) {
	if err := checkLinear(query, d); err != nil {
		return prefs.Function{}, err
	}
	return prefs.NewFunction(query.ID, query.Weights)
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
	if opts == nil {
		opts = &Options{}
	}
	if k < 0 {
		return nil, fmt.Errorf("prefmatch: negative k %d", k)
	}
	if len(objects) == 0 || k == 0 {
		return nil, nil
	}
	d, items, _, err := convertObjectSet(objects)
	if err != nil {
		return nil, err
	}
	f, err := linearPref(query, d)
	if err != nil {
		return nil, err
	}
	tree, c, err := buildIndex(items, d, opts)
	if err != nil {
		return nil, err
	}
	return topkOver(tree, query.ID, f, k, cancel.Token{}, c)
}

// TopKMonotone is TopK for an arbitrary monotone preference.
func TopKMonotone(objects []Object, query PreferenceQuery, k int, opts *Options) ([]Assignment, error) {
	if opts == nil {
		opts = &Options{}
	}
	if k < 0 {
		return nil, fmt.Errorf("prefmatch: negative k %d", k)
	}
	if query.Preference == nil {
		return nil, fmt.Errorf("prefmatch: preference query %d is nil", query.ID)
	}
	if len(objects) == 0 || k == 0 {
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
	return topkOver(tree, query.ID, prefAdapter{p: query.Preference}, k, cancel.Token{}, c)
}

// Dominates reports whether object a dominates object b: at least as good
// in every attribute and strictly better in at least one.
func Dominates(a, b Object) bool {
	if len(a.Values) != len(b.Values) || len(a.Values) == 0 {
		return false
	}
	return vec.Point(a.Values).Dominates(vec.Point(b.Values))
}
