package comm

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSparseMatrix measures the hybrid matrix's accumulation path —
// the per-event cost every detector pays — in both representations, and
// reports an events/sec custom metric (one event is one Add). ci.sh runs
// it once as a smoke.
func BenchmarkSparseMatrix(b *testing.B) {
	bench := func(b *testing.B, m *Matrix, partners int) {
		n := m.N()
		rng := rand.New(rand.NewSource(int64(n)))
		// A bounded random neighborhood per thread, like real detector
		// traffic: thread i talks to ~partners threads near i.
		src := make([]int, 4096)
		dst := make([]int, 4096)
		for k := range src {
			i := rng.Intn(n)
			j := (i + 1 + rng.Intn(partners)) % n
			src[k], dst[k] = i, j
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i & 4095
			m.Add(src[k], dst[k], 1)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	}
	b.Run("dense128", func(b *testing.B) {
		bench(b, NewDenseMatrix(128), 16)
	})
	b.Run("sparse1024", func(b *testing.B) {
		bench(b, NewSparseMatrix(1024), 16)
	})
	b.Run(fmt.Sprintf("sketch1024-k%d", 32), func(b *testing.B) {
		m := NewSparseMatrix(1024)
		m.SetRowBudget(32)
		bench(b, m, 16)
	})
}
