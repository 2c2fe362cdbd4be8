package main

import (
	"fmt"
	"math"

	"prefmatch"
	"prefmatch/internal/prefs"
	"prefmatch/internal/vec"
)

// bruteTopK scans every object and returns the k best for the weights, in
// the engine's total order: higher score, then larger coordinate sum
// (prefs.BetterObj), then smaller ID. Scores use prefs.Function.Score, which
// the engine's kernels match bit for bit.
func bruteTopK(objs []prefmatch.Object, qid int, weights []float64, k int) ([]prefmatch.Assignment, error) {
	f, err := prefs.NewFunction(qid, weights)
	if err != nil {
		return nil, err
	}
	type cand struct {
		id         int
		score, sum float64
	}
	better := func(a, b cand) bool { return prefs.BetterObj(a.score, a.sum, a.id, b.score, b.sum, b.id) }
	top := make([]cand, 0, k+1)
	for _, o := range objs {
		p := vec.Point(o.Values)
		c := cand{id: o.ID, score: f.Score(p), sum: p.Sum()}
		if len(top) == k && !better(c, top[k-1]) {
			continue
		}
		i := len(top)
		top = append(top, c)
		for i > 0 && better(c, top[i-1]) {
			top[i] = top[i-1]
			i--
		}
		top[i] = c
		if len(top) > k {
			top = top[:k]
		}
	}
	out := make([]prefmatch.Assignment, len(top))
	for i, c := range top {
		out[i] = prefmatch.Assignment{QueryID: qid, ObjectID: c.id, Score: c.score}
	}
	return out, nil
}

// sameAnswer reports the first difference between two ranked answers:
// length, then each rank's object ID and score, compared bit for bit.
func sameAnswer(got, want []prefmatch.Assignment) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ObjectID != w.ObjectID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("rank %d: object %d score %v, want object %d score %v", i, g.ObjectID, g.Score, w.ObjectID, w.Score)
		}
	}
	return nil
}
