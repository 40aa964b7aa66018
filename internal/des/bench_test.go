package des

import (
	"context"
	"fmt"
	"testing"
)

// Engine micro-benchmarks: the per-event and per-task costs every simulated
// experiment pays. Run with -benchmem; steady-state allocs/op must be 0 for
// the engine and resource benches (asserted by alloc_test.go, smoked by CI).

// BenchmarkEngineScheduleRun measures one schedule-then-drain cycle of 1024
// events on a warm engine — the DES hot path in isolation.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	const n = 1024
	e.Reserve(n)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < n; j++ {
			e.At(base+Time(j%13), fn)
		}
		e.RunCtx(context.Background())
	}
	b.ReportMetric(float64(e.Fired())/float64(b.N), "events/op")
}

// BenchmarkEngineScheduleCancelRun measures the lazy-cancellation path: half
// the events are cancelled and collected at pop time.
func BenchmarkEngineScheduleCancelRun(b *testing.B) {
	e := NewEngine()
	const n = 1024
	e.Reserve(n)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < n; j++ {
			h := e.At(base+Time(j%13), fn)
			if j%2 == 0 {
				h.Cancel()
			}
		}
		e.RunCtx(context.Background())
	}
}

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
