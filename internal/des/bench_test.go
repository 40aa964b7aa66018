package des

import (
	"fmt"
	"testing"
)

// Run-loop micro-benchmarks: the per-grant and per-task costs every
// simulated experiment pays. Run with -benchmem; steady-state allocs/op must
// be 0 for the resource bench (asserted by alloc_test.go, smoked by CI).

// BenchmarkResourceReserveReset measures resource acquire/release cycles.
func BenchmarkResourceReserveReset(b *testing.B) {
	r := NewResource("link")
	const n = 1024
	r.Prealloc(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < n; j++ {
			if _, _, err := r.reserve(Time(j), 10, j); err != nil {
				b.Fatal(err)
			}
		}
		r.Reset()
	}
}

// BenchmarkGraphPipeline measures Graph build+run of the K-chunk pipeline
// shape every collective schedule reduces to: d serialized links, k chunks.
// Graphs are one-shot by design, so the build cost is part of the metric.
func BenchmarkGraphPipeline(b *testing.B) {
	for _, size := range []struct{ d, k int }{{4, 64}, {8, 256}} {
		b.Run(fmt.Sprintf("links%d-chunks%d", size.d, size.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := NewGraph()
				links := make([]*Resource, size.d)
				for l := range links {
					links[l] = NewResource("link")
				}
				prev := make([]int, size.k)
				for l := 0; l < size.d; l++ {
					for c := 0; c < size.k; c++ {
						if l == 0 {
							prev[c] = g.Add("hop", links[l], 100)
						} else {
							prev[c] = g.Add("hop", links[l], 100, prev[c])
						}
					}
				}
				mustRun(b, g)
			}
		})
	}
}
