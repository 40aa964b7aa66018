package train

import (
	"context"
	"testing"

	"ccube/internal/dnn"
)

// BenchmarkExecute times one ModeCC training iteration of ResNet-50 at
// batch 64 on the DGX-1: the standalone collective run plus the whole
// iteration graph (backward, one-shot AllReduce, chained forward). The
// schedule comes from the cache after the first iteration, so the timed
// work is the two DES runs and the graph construction around them.
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
