package train

import (
	"context"
	"testing"

	"ccube/internal/dnn"
	"ccube/internal/metrics"
)

// BenchmarkExecute times one ModeCC training iteration of ResNet-50 at
// batch 64 on the DGX-1: building and running the iteration graph
// (backward, the one-shot AllReduce as one block, chained forward) and
// reading the collective's Result off its block. The schedule comes from
// the cache after the first iteration, so the timed work is the one DES
// run and the graph construction around it.
func BenchmarkExecute(b *testing.B) {
	b.Run("dgx1-resnet50-CC", func(b *testing.B) {
		cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC}
		ctx := context.Background()
		if _, err := RunCtx(ctx, cfg); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunCtx(ctx, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// iterationAllocs is what one warm ModeCC ResNet-50 iteration on the DGX-1
// (the Train/dgx1-resnet50-CC bench) allocates: the resources, the graph's
// columns as they grow, the collective block and the Result. None of it is
// per task: tasks carry no formatted name and their dependencies pass
// through one reused scratch slice.
const iterationAllocs = 210

// TestIterationAllocations pins a warm iteration's allocations at their
// exact count. Timing is too noisy to catch a formatted name or a per-task
// slice coming back; either adds thousands of allocations here.
func TestIterationAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build allocates differently")
	}
	if metrics.Default.Enabled() {
		t.Skip("metrics collection allocates on top of the iteration")
	}
	cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC}
	run(t, cfg) // warms the schedule cache
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RunCtx(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != iterationAllocs {
		t.Fatalf("a warm ModeCC ResNet-50 iteration allocates %.1f times, want %d", allocs, iterationAllocs)
	}
}
