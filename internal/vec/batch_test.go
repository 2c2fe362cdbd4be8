package vec

import (
	"math/rand"
	"testing"
)

// coarse weights and coordinates (small integer multiples of 0.25) provoke
// exact float ties, so any reassociation of the accumulation order in the
// batch kernels would show up as a bit-level mismatch against Dot/DotSum.
func coarseSlab(rng *rand.Rand, n, d int) []float64 {
	s := make([]float64, n*d)
	for i := range s {
		s[i] = float64(rng.Intn(5)) * 0.25
	}
	return s
}

func TestDotBatchMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range []int{1, 2, 3, 4, 7} {
		for _, q := range []int{1, 3, 16} {
			for _, n := range []int{1, 5, 33} {
				ws := coarseSlab(rng, q, d)
				xs := coarseSlab(rng, n, d)
				out := make([]float64, q*n)
				DotBatch(ws, q, d, xs, out)
				for f := 0; f < q; f++ {
					w := Point(ws[f*d : (f+1)*d])
					for i := 0; i < n; i++ {
						want := Dot(w, xs[i*d:(i+1)*d])
						if got := out[f*n+i]; got != want {
							t.Fatalf("d=%d q=%d n=%d: out[%d,%d] = %v, Dot = %v", d, q, n, f, i, got, want)
						}
					}
				}
			}
		}
	}
}

func TestMBRBoundsBatchMatchesDotOnHiCorner(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const d, q, n = 3, 5, 17
	ws := coarseSlab(rng, q, d)
	hi := coarseSlab(rng, n, d)
	out := make([]float64, q*n)
	MBRBoundsBatch(ws, q, d, hi, out)
	for f := 0; f < q; f++ {
		for i := 0; i < n; i++ {
			if want := Dot(Point(ws[f*d:(f+1)*d]), hi[i*d:(i+1)*d]); out[f*n+i] != want {
				t.Fatalf("bound[%d,%d] = %v, Dot(hi) = %v", f, i, out[f*n+i], want)
			}
		}
	}
}

func TestBatchKernelsZeroAlloc(t *testing.T) {
	const d, q, n = 4, 8, 32
	rng := rand.New(rand.NewSource(44))
	ws := coarseSlab(rng, q, d)
	xs := coarseSlab(rng, n, d)
	out := make([]float64, q*n)
	if a := testing.AllocsPerRun(100, func() {
		DotBatch(ws, q, d, xs, out)
		MBRBoundsBatch(ws, q, d, xs, out)
	}); a != 0 {
		t.Fatalf("batch kernels allocate %v per run", a)
	}
}
