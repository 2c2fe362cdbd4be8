package core

import (
	"runtime"
	"testing"

	"prefmatch/internal/dataset"
	"prefmatch/internal/index"
	"prefmatch/internal/index/mem"
	"prefmatch/internal/prefs"
)

// sbWaveInputs is one SB matching wave at serving scale: 100 functions over
// 20k Zillow objects in a memory index, the backend Server.Match runs on.
func sbWaveInputs(tb testing.TB) (index.ObjectIndex, []prefs.Function) {
	tb.Helper()
	tree, err := mem.Build(5, dataset.Zillow(20_000, 1), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return tree, dataset.Functions(100, 5, 2)
}

func BenchmarkSBWave(b *testing.B) {
	tree, fns := sbWaveInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Match(tree, fns, &Options{Algorithm: AlgSB}); err != nil {
			b.Fatal(err)
		}
	}
}

// sbWaveAllocCeiling bounds the bytes one BenchmarkSBWave wave allocates.
// A wave allocated 16.1 MB when every plist entry carried its node's whole
// MBR (104 bytes); with 48-byte entries it allocates 8.3 MB (Go 1.24), so
// the ceiling leaves about 50% headroom and still catches a return to the
// old entry layout.
const sbWaveAllocCeiling = 12 << 20

func TestSBWaveAllocCeiling(t *testing.T) {
	tree, fns := sbWaveInputs(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Match(tree, fns, &Options{Algorithm: AlgSB}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > sbWaveAllocCeiling {
		t.Fatalf("one SB wave allocated %d bytes, ceiling %d", got, sbWaveAllocCeiling)
	}
}
