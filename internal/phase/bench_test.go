package phase

import (
	"fmt"
	"testing"
)

// BenchmarkFormPhases measures full phase formation (vectorization,
// feature selection, k sweep) on a synthetic 600-unit trace at each
// worker count; workers=1 is the perf gate's kernel-speedup baseline.
func BenchmarkFormPhases(b *testing.B) {
	tr := synthTrace(300, 1) // 600 units
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Form(tr, Options{Seed: uint64(i), Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVectorizeSparse measures CSR vectorization of the full
// method space — the path Form runs, which never materializes the
// n×d dense matrix.
func BenchmarkVectorizeSparse(b *testing.B) {
	tr := synthTrace(300, 2)
	fs := fullSpace(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.VectorizeSparse(tr)
	}
}

func BenchmarkVectorize(b *testing.B) {
	tr := synthTrace(300, 2)
	ph, err := Form(tr, Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph.Space.Vectorize(tr)
	}
}
