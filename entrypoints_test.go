// Tests that every top-k entry point answers one question identically: the
// single-query methods and their *Context twins, TopKPref, both batched
// forms, a session, and the package-level functions must return the same
// ranking as Server.TopK (Server.TopKMonotone for a monotone preference) —
// or the same error text — for any input, and must never panic.
package prefmatch_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"prefmatch"
)

// topKEntry is one way to ask a server (or the objects it was built from)
// for a top-k ranking.
type topKEntry struct {
	name string
	run  func(k int) ([]prefmatch.Assignment, error)
}

// linearEntries lists every entry point that answers the linear query q;
// the first is the reference, Server.TopK.
func linearEntries(srv *prefmatch.Server, objs []prefmatch.Object, q prefmatch.Query) []topKEntry {
	ctx := context.Background()
	many := func(res [][]prefmatch.Assignment, err error) ([]prefmatch.Assignment, error) {
		if err != nil {
			return nil, err
		}
		return res[0], nil
	}
	// The append forms are handed non-empty buffers, so they must honour
	// the offsets base they were given.
	flat := func(dst []prefmatch.Assignment, offsets []int, err error) ([]prefmatch.Assignment, error) {
		if err != nil {
			return nil, err
		}
		return dst[offsets[1]:offsets[2]], nil
	}
	qs := []prefmatch.Query{q}
	return []topKEntry{
		{"Server.TopK", func(k int) ([]prefmatch.Assignment, error) { return srv.TopK(q, k) }},
		{"Server.TopKContext", func(k int) ([]prefmatch.Assignment, error) { return srv.TopKContext(ctx, q, k) }},
		{"Server.TopKPref(Query)", func(k int) ([]prefmatch.Assignment, error) { return srv.TopKPref(q, k) }},
		{"Server.TopKPrefContext(*Query)", func(k int) ([]prefmatch.Assignment, error) { return srv.TopKPrefContext(ctx, &q, k) }},
		{"Server.TopKMany", func(k int) ([]prefmatch.Assignment, error) { return many(srv.TopKMany(qs, k, 1)) }},
		{"Server.TopKManyContext", func(k int) ([]prefmatch.Assignment, error) { return many(srv.TopKManyContext(ctx, qs, k, 0)) }},
		{"Server.TopKManyAppend", func(k int) ([]prefmatch.Assignment, error) {
			return flat(srv.TopKManyAppend(nil, []int{0}, qs, k))
		}},
		{"Server.TopKManyAppendContext", func(k int) ([]prefmatch.Assignment, error) {
			return flat(srv.TopKManyAppendContext(ctx, make([]prefmatch.Assignment, 3), []int{7}, qs, k))
		}},
		{"Session.TopK", func(k int) ([]prefmatch.Assignment, error) { return sessionTopK(srv, q, k, 1) }},
		{"Session.TopK (asked twice)", func(k int) ([]prefmatch.Assignment, error) { return sessionTopK(srv, &q, k, 2) }},
		{"package TopK", func(k int) ([]prefmatch.Assignment, error) { return prefmatch.TopK(objs, q, k, nil) }},
	}
}

// preferenceEntries lists every entry point that accepts an arbitrary
// Preference value p; the first is the reference, Server.TopKPref.
// Entry points typed for a PreferenceQuery join when p is one.
func preferenceEntries(srv *prefmatch.Server, objs []prefmatch.Object, p prefmatch.Preference) []topKEntry {
	es := []topKEntry{
		{"Server.TopKPref", func(k int) ([]prefmatch.Assignment, error) { return srv.TopKPref(p, k) }},
		{"Session.TopK", func(k int) ([]prefmatch.Assignment, error) { return sessionTopK(srv, p, k, 1) }},
	}
	if pq, ok := p.(prefmatch.PreferenceQuery); ok {
		es = append(es,
			topKEntry{"Server.TopKMonotone", func(k int) ([]prefmatch.Assignment, error) { return srv.TopKMonotone(pq, k) }},
			topKEntry{"Server.TopKMonotoneContext", func(k int) ([]prefmatch.Assignment, error) {
				return srv.TopKMonotoneContext(context.Background(), pq, k)
			}},
			topKEntry{"Server.TopKPref(*PreferenceQuery)", func(k int) ([]prefmatch.Assignment, error) { return srv.TopKPref(&pq, k) }},
			topKEntry{"package TopKMonotone", func(k int) ([]prefmatch.Assignment, error) { return prefmatch.TopKMonotone(objs, pq, k, nil) }},
		)
	}
	return es
}

// sessionTopK opens a session for p and asks it for the top-k times times,
// returning the last answer; an OpenSession error is the answer's error.
func sessionTopK(srv *prefmatch.Server, p prefmatch.Preference, k, times int) ([]prefmatch.Assignment, error) {
	sess, err := srv.OpenSession(p)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	var got []prefmatch.Assignment
	for i := 0; i < times; i++ {
		if got, err = sess.TopK(k); err != nil {
			return nil, err
		}
	}
	return got, nil
}

// agree runs every entry point at depth k and reports the first one whose
// answer or error text differs from the reference's (entries[0]).
func agree(entries []topKEntry, k int) error {
	want, werr := entries[0].run(k)
	for _, e := range entries[1:] {
		got, err := e.run(k)
		switch {
		case (err == nil) != (werr == nil):
			return fmt.Errorf("k=%d: %s error %v, %s error %v", k, e.name, err, entries[0].name, werr)
		case err != nil && err.Error() != werr.Error():
			return fmt.Errorf("k=%d: %s error %q, %s error %q", k, e.name, err, entries[0].name, werr)
		case len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)):
			return fmt.Errorf("k=%d: %s answered %d rows, %s %d\ngot  %v\nwant %v", k, e.name, len(got), entries[0].name, len(want), got, want)
		}
	}
	return nil
}

// entryServers builds the servers the entry-point checks run on: Memory and
// three shards over the same 300 three-attribute objects.
func entryServers(tb testing.TB) ([]prefmatch.Object, map[string]*prefmatch.Server) {
	objs := serveObjects(300, 3, 97)
	srvs := map[string]*prefmatch.Server{}
	for name, opts := range map[string]*prefmatch.Options{"memory": nil, "shards=3": {Shards: 3}} {
		srv, err := prefmatch.NewServer(objs, opts)
		if err != nil {
			tb.Fatal(err)
		}
		srvs[name] = srv
	}
	return objs, srvs
}

// hugeKs are the depths near MaxInt at which a session's over-fetch depth
// (2k+8) used to wrap.
var hugeKs = []int{math.MaxInt / 2, math.MaxInt - 3, math.MaxInt}

func TestSessionHugeKMatchesServerTopK(t *testing.T) {
	objs, srvs := entryServers(t)
	q := prefmatch.Query{ID: 5, Weights: []float64{1, 2, 3}}
	for name, srv := range srvs {
		for _, k := range hugeKs {
			want, err := srv.TopK(q, k)
			if err != nil || len(want) != len(objs) {
				t.Fatalf("%s k=%d: Server.TopK returned %d rows, err %v; want all %d", name, k, len(want), err, len(objs))
			}
			got, err := sessionTopK(srv, q, k, 1)
			if err != nil {
				t.Fatalf("%s k=%d: Session.TopK: %v", name, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s k=%d: Session.TopK returned %d rows, Server.TopK %d", name, k, len(got), len(want))
			}
		}
		if p := srv.Stats().Panics; p != 0 {
			t.Fatalf("%s: %d panics", name, p)
		}
	}
}

func TestTopKManyNegativeKOneError(t *testing.T) {
	_, srvs := entryServers(t)
	const want = "prefmatch: negative k -1"
	for name, srv := range srvs {
		for _, n := range []int{0, 1, 5, 130} {
			qs := serveQueries(n, 3, 98)
			if _, err := srv.TopKMany(qs, -1, 2); err == nil || err.Error() != want {
				t.Fatalf("%s n=%d: TopKMany error %v, want %q", name, n, err, want)
			}
			if _, _, err := srv.TopKManyAppend(nil, nil, qs, -1); err == nil || err.Error() != want {
				t.Fatalf("%s n=%d: TopKManyAppend error %v, want %q", name, n, err, want)
			}
		}
	}
}

// TestTopKEntryPointsAgreeOnHostileInput sends malformed and extreme
// queries through every entry point: each must return Server.TopK's answer
// or its exact error text, and none may panic.
func TestTopKEntryPointsAgreeOnHostileInput(t *testing.T) {
	objs, srvs := entryServers(t)
	nan, inf := math.NaN(), math.Inf(1)
	weights := []struct {
		name    string
		w       []float64
		wantErr string // substring of the agreed error; "" for a valid query
	}{
		{"valid", []float64{1, 2, 3}, ""},
		{"nan", []float64{nan, 1, 1}, "NaN or infinite"},
		{"+inf", []float64{1, inf, 1}, "NaN or infinite"},
		{"-inf", []float64{1, 1, -inf}, "NaN or infinite"},
		{"huge", []float64{math.MaxFloat64, math.MaxFloat64, 1}, ""},
		{"subnormal", []float64{5e-324, 0, 0}, ""},
		{"negative", []float64{1, -1, 1}, "negative weight"},
		{"all zero", []float64{0, 0, 0}, "all weights zero"},
		{"nil weights", nil, "empty weight vector"},
		{"short", []float64{1, 2}, "has 2 weights, want 3"},
		{"long", []float64{1, 2, 3, 4}, "has 4 weights, want 3"},
		{"nan and short", []float64{nan, 1}, "NaN or infinite"},
	}
	ks := append([]int{-1, 0, 1, 7}, hugeKs...)
	for name, srv := range srvs {
		for _, tc := range weights {
			q := prefmatch.Query{ID: 3, Weights: tc.w}
			for _, k := range ks {
				if err := agree(linearEntries(srv, objs, q), k); err != nil {
					t.Errorf("%s %s: %v", name, tc.name, err)
					continue
				}
				_, err := srv.TopK(q, k)
				want := tc.wantErr
				if want == "" && k < 0 {
					want = "negative k"
				}
				if (err == nil) != (want == "") || (err != nil && !strings.Contains(err.Error(), want)) {
					t.Errorf("%s %s k=%d: agreed error %v, want one containing %q", name, tc.name, k, err, want)
				}
			}
		}
		valid := prefmatch.PreferenceQuery{ID: 4, Preference: prefmatch.LinearPreference{Weights: []float64{1, 2, 3}}}
		prefsIn := []struct {
			name    string
			p       prefmatch.Preference
			wantErr string
		}{
			{"nil", nil, "nil Preference"},
			{"nil *Query", (*prefmatch.Query)(nil), "nil Preference"},
			{"nil *PreferenceQuery", (*prefmatch.PreferenceQuery)(nil), "nil Preference"},
			{"PreferenceQuery with nil Preference", prefmatch.PreferenceQuery{ID: 8}, "preference query 8 is nil"},
			{"&PreferenceQuery with nil Preference", &prefmatch.PreferenceQuery{ID: 9}, "preference query 9 is nil"},
			{"PreferenceQuery", valid, ""},
			{"bare Preference", valid.Preference, ""},
		}
		for _, tc := range prefsIn {
			for _, k := range ks {
				if err := agree(preferenceEntries(srv, objs, tc.p), k); err != nil {
					t.Errorf("%s %s: %v", name, tc.name, err)
					continue
				}
				_, err := srv.TopKPref(tc.p, k)
				want := tc.wantErr
				if want == "" && k < 0 {
					want = "negative k"
				}
				if (err == nil) != (want == "") || (err != nil && !strings.Contains(err.Error(), want)) {
					t.Errorf("%s %s k=%d: agreed error %v, want one containing %q", name, tc.name, k, err, want)
				}
			}
		}
		if p := srv.Stats().Panics; p != 0 {
			t.Fatalf("%s: %d panics", name, p)
		}
	}
}

// FuzzTopKEntryPoints fuzzes a query's weights, dimension and k through
// every linear entry point, and — where the weights make a valid monotone
// preference — through every monotone one: all must agree with the
// reference and never panic. The seed corpus in testdata/fuzz holds the
// depths at which a session's fetch depth used to wrap.
func FuzzTopKEntryPoints(f *testing.F) {
	objs, srvs := entryServers(f)
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3 float64, dim uint8, k int) {
		w := []float64{w0, w1, w2, w3}[:dim%5]
		q := prefmatch.Query{ID: 11, Weights: w}
		monotone := len(w) == 3
		for _, x := range w {
			monotone = monotone && x >= 0 && x <= 1e6
		}
		for name, srv := range srvs {
			if err := agree(linearEntries(srv, objs, q), k); err != nil {
				t.Fatalf("%s weights %v: %v", name, w, err)
			}
			if monotone {
				pq := prefmatch.PreferenceQuery{ID: 12, Preference: prefmatch.LinearPreference{Weights: w}}
				if err := agree(preferenceEntries(srv, objs, pq), k); err != nil {
					t.Fatalf("%s monotone weights %v: %v", name, w, err)
				}
			}
			if p := srv.Stats().Panics; p != 0 {
				t.Fatalf("%s weights %v k=%d: %d panics", name, w, k, p)
			}
		}
	})
}
