package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"tlbmap/internal/comm"
	"tlbmap/internal/topology"
)

// benchScaleMatrix builds the scrambled-locality manycore pattern of the
// scale tests: partner pairs and a ring hidden behind a random
// permutation, plus long-range noise — about 16 partners per thread.
func benchScaleMatrix(n int) *comm.Matrix {
	rng := rand.New(rand.NewSource(int64(n)))
	m := comm.NewMatrix(n)
	perm := rng.Perm(n)
	for i := 0; i < n; i++ {
		m.Add(perm[i], perm[(i+1)%n], 5_000+uint64(rng.Intn(1000)))
		m.Add(perm[i], perm[i^1], 8_000+uint64(rng.Intn(1000)))
		for k := 0; k < 12; k++ {
			m.Add(perm[i], perm[rng.Intn(n)], uint64(rng.Intn(200)))
		}
	}
	return m
}

// BenchmarkMultilevel measures end-to-end multilevel mapping throughput on
// the canonical manycore machines and reports an events/sec custom metric
// (one event is one non-zero matrix cell consumed by the mapper). ci.sh
// runs it once as a smoke.
func BenchmarkMultilevel(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("threads%d", n), func(b *testing.B) {
			machine := topology.Manycore(n)
			m := benchScaleMatrix(n)
			nnz := m.NNZ()
			ml := NewMultilevel()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ml.Map(m, machine); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nnz)*float64(b.N)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
