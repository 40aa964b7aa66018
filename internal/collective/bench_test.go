package collective

import (
	"runtime"
	"testing"

	"ccube/internal/topology"
)

// BenchmarkBuild times schedule construction on the shapes the served
// requests build cold: C-Cube on the DGX-1 at 16 MiB (cost-model chunk
// count), the ring on a 16-GPU fully connected fabric, the chained
// hierarchical AllReduce over 32 DGX-1 boxes (256 GPUs), and C-Cube on the
// 64-GPU cluster at 128 chunks (the simulate_scale shape). Topologies are
// built outside the timer. Besides ns/op and allocs/op it reports
// ns/transfer, B/transfer (allocated while building) and
// retained-B/transfer (live heap one built schedule holds).
func BenchmarkBuild(b *testing.B) {
	b.Run("dgx1-ccube-16MiB", func(b *testing.B) {
		g := topology.DGX1(topology.DefaultDGX1Config())
		runBuildBench(b, func() (*Schedule, error) {
			return Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 16 << 20})
		})
	})
	b.Run("fc16-ring", func(b *testing.B) {
		g := topology.FullyConnected(16, topology.NVLinkBandwidth, topology.NVLinkLatency)
		runBuildBench(b, func() (*Schedule, error) {
			return Build(Config{Graph: g, Algorithm: AlgRing, Bytes: 16 << 20})
		})
	})
	b.Run("cluster256-hierarchical", func(b *testing.B) {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(32))
		if err != nil {
			b.Fatal(err)
		}
		runBuildBench(b, func() (*Schedule, error) {
			return BuildHierarchical(HierarchicalConfig{Cluster: mn, Bytes: 64 << 20, Chained: true})
		})
	})
	b.Run("cluster64-ccube-128chunks", func(b *testing.B) {
		g := topology.Hierarchy(topology.DefaultHierarchyConfig(64))
		runBuildBench(b, func() (*Schedule, error) {
			return Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128,
				AllowSharedChannels: true})
		})
	})
}

func runBuildBench(b *testing.B, build func() (*Schedule, error)) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := build()
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := s.NumTransfers()
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(s)

	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/transfer")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*n), "B/transfer")
	b.ReportMetric(retained/float64(n), "retained-B/transfer")
	b.ReportMetric(float64(n), "transfers")
}
