package train

import (
	"context"
	"testing"

	"ccube/internal/dnn"
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
