// Blocked multi-function scoring kernels: score a Q×D weight matrix against a
// backend's contiguous point / MBR slabs in one call. These are the inner
// loops of the batched shared-traversal searcher (internal/topk.BatchSearcher)
// — one node visit scores every still-active preference function, so the
// per-node work becomes a small dense matrix product instead of Q separate
// strided walks.
//
// Every kernel accumulates each (function, entry) pair in ascending
// coordinate order, exactly like Dot / DotSum / prefs.Function.Score, so the
// per-function results are bit-identical to the unbatched path (pinned by
// TestDotBatchMatchesDot and the topk equivalence suite).
package vec

// DotBatch scores q weight rows against n = len(xs)/d dim-strided points:
// out[f*n+i] = Dot(ws[f*d:(f+1)*d], xs[i*d:(i+1)*d]). ws holds the q rows
// back to back (each of length d) and out must have room for q*n results.
// Row f of the output is the same sequence of floats the unbatched path
// produces by calling Dot per point.
func DotBatch(ws []float64, q, d int, xs []float64, out []float64) {
	n := len(xs) / d
	_ = out[:q*n]
	for f := 0; f < q; f++ {
		w := ws[f*d : f*d+d : f*d+d]
		o := out[f*n : f*n+n : f*n+n]
		for i := range o {
			// Reslicing to len(w) lets the compiler drop the bounds check
			// on every x[j] below.
			x := xs[i*d : i*d+d : i*d+d][:len(w)]
			s := 0.0
			for j, wj := range w {
				s += wj * x[j]
			}
			o[i] = s
		}
	}
}

// MBRBoundsBatch computes, for each of q linear functions and each of the
// n = len(hi)/d dim-strided MBRs whose top corners are stored in hi, the
// function's upper bound over the MBR: out[f*n+i] = Dot(row f, hi corner i).
// Under the maximisation convention a monotone preference attains its
// supremum over a rectangle at the Hi corner, so bounding is the same kernel
// as scoring — kept as a named entry point so call sites read as bounding.
func MBRBoundsBatch(ws []float64, q, d int, hi []float64, out []float64) {
	DotBatch(ws, q, d, hi, out)
}
