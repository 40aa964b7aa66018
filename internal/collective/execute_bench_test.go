package collective

import (
	"context"
	"runtime"
	"testing"

	"ccube/internal/topology"
)

// BenchmarkExecute times one DES run of a cached, verified schedule — the
// work a schedule-cache hit leaves to ExecuteCtx — on the dgx1 C-Cube tree
// at 16 MiB, C-Cube on the 64-GPU cluster at 128 chunks (the simulate_scale
// shape), a 64-chunk prefix header over that 128-chunk carrier, a 68-chunk
// separated tree derived from a 128-chunk carrier on the same cluster, and
// the chained hierarchical AllReduce over 32 DGX-1 boxes (256 GPUs).
// Schedules are built, and run twice so their op graphs are lowered (see
// lower.go), outside the timer. Besides ns/op, B/op and allocs/op it
// reports ns/transfer.
func BenchmarkExecute(b *testing.B) {
	b.Run("dgx1-ccube-16MiB", func(b *testing.B) {
		g := topology.DGX1(topology.DefaultDGX1Config())
		runExecuteBench(b, func() (*Schedule, error) {
			return Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 16 << 20})
		})
	})
	b.Run("cluster64-ccube-128chunks", func(b *testing.B) {
		g := topology.Hierarchy(topology.DefaultHierarchyConfig(64))
		runExecuteBench(b, func() (*Schedule, error) {
			return Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128,
				AllowSharedChannels: true})
		})
	})
	b.Run("cluster64-ccube-prefix-64of128", func(b *testing.B) {
		g := topology.Hierarchy(topology.DefaultHierarchyConfig(64))
		runExecuteBench(b, func() (*Schedule, error) {
			return fromCarrier(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128,
				AllowSharedChannels: true}, 64)
		})
	})
	b.Run("cluster64-tree-derived", func(b *testing.B) {
		g := topology.Hierarchy(topology.DefaultHierarchyConfig(64))
		runExecuteBench(b, func() (*Schedule, error) {
			return fromCarrier(Config{Graph: g, Algorithm: AlgTree, Bytes: 64 << 20, Chunks: 128,
				AllowSharedChannels: true}, 68)
		})
	})
	b.Run("cluster256-hierarchical", func(b *testing.B) {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(32))
		if err != nil {
			b.Fatal(err)
		}
		runExecuteBench(b, func() (*Schedule, error) {
			return BuildHierarchical(HierarchicalConfig{Cluster: mn, Bytes: 64 << 20, Chained: true})
		})
	})
}

// fromCarrier builds cfg's carrier in a fresh cache and returns the
// schedule the cache serves for k of its chunks: a header over its first k
// chunks, or a copy derived from it.
func fromCarrier(cfg Config, k int) (*Schedule, error) {
	c := NewCache()
	if _, err := c.Build(cfg); err != nil {
		return nil, err
	}
	cfg.Chunks = k
	return c.Build(cfg)
}

func runExecuteBench(b *testing.B, build func() (*Schedule, error)) {
	s, err := build()
	if err != nil {
		b.Fatal(err)
	}
	s.stamp() // as a cache hit is, so every run pays the staleness check
	ctx := context.Background()
	for range 2 { // the second run lowers the op graph
		if _, err := s.ExecuteCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExecuteCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.NumTransfers()), "ns/transfer")
}
