package collective

import (
	"fmt"
	"runtime"
	"testing"

	"ccube/internal/topology"
)

// BenchmarkBuild times raw schedule construction, without the proof the
// exported constructors add, on the shapes the served requests build cold:
// C-Cube on the DGX-1 at 16 MiB (cost-model chunk count), the ring on a
// 16-GPU fully connected fabric, the chained hierarchical AllReduce over 32
// DGX-1 boxes (256 GPUs), and C-Cube on the 64-GPU cluster at 128 chunks
// (the simulate_scale shape). Topologies are built outside the timer. Besides ns/op and allocs/op it reports
// ns/transfer, B/transfer (allocated while building) and
// retained-B/transfer (live heap one built schedule holds).
func BenchmarkBuild(b *testing.B) {
	b.Run("dgx1-ccube-16MiB", func(b *testing.B) {
		g := topology.DGX1(topology.DefaultDGX1Config())
		runBuildBench(b, func() (*Schedule, error) {
			return build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 16 << 20})
		})
	})
	b.Run("fc16-ring", func(b *testing.B) {
		g := topology.FullyConnected(16, topology.NVLinkBandwidth, topology.NVLinkLatency)
		runBuildBench(b, func() (*Schedule, error) {
			return build(Config{Graph: g, Algorithm: AlgRing, Bytes: 16 << 20})
		})
	})
	b.Run("cluster256-hierarchical", func(b *testing.B) {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(32))
		if err != nil {
			b.Fatal(err)
		}
		runBuildBench(b, func() (*Schedule, error) {
			return buildHierarchical(HierarchicalConfig{Cluster: mn, Bytes: 64 << 20, Chained: true})
		})
	})
	b.Run("cluster64-ccube-128chunks", func(b *testing.B) {
		g := topology.Hierarchy(topology.DefaultHierarchyConfig(64))
		runBuildBench(b, func() (*Schedule, error) {
			return build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128,
				AllowSharedChannels: true})
		})
	})
}

// retainedPerTransfer builds one schedule between two collections and
// returns the live heap it holds per transfer, and its transfer count.
func retainedPerTransfer(construct func() (*Schedule, error)) (float64, int, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := construct()
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := s.NumTransfers()
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(s)
	return retained / float64(n), n, nil
}

func runBuildBench(b *testing.B, construct func() (*Schedule, error)) {
	retained, n, err := retainedPerTransfer(construct)
	if err != nil {
		b.Fatal(err)
	}

	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := construct(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/transfer")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N*n), "B/transfer")
	b.ReportMetric(retained, "retained-B/transfer")
	b.ReportMetric(float64(n), "transfers")
}

// BenchmarkRepair times RepairSchedule on the DGX-1 C-Cube schedule with
// both parallel NVLinks of its first ridden channel killed, so every
// stranded transfer is spliced onto a detour through a third GPU: at 4
// chunks, as in TestRepairMatrix, and at 32, which strands eight times the
// transfers. Besides allocs/op it reports the forwarding hops each repair
// adds.
func BenchmarkRepair(b *testing.B) {
	for _, chunks := range []int{4, 32} {
		b.Run(fmt.Sprintf("dgx1-ccube-two-link-kill-%dchunks", chunks), func(b *testing.B) {
			g := dgx1()
			s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: chunks})
			if err != nil {
				b.Fatal(err)
			}
			for _, cid := range usedChannels(s) {
				ch := g.Channel(cid)
				if len(g.ChannelsBetween(ch.From, ch.To)) == 2 {
					for _, sib := range g.ChannelsBetween(ch.From, ch.To) {
						g.KillChannel(sib)
					}
					break
				}
			}
			_, rep, err := RepairSchedule(s, g.DownChannels(), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := RepairSchedule(s, g.DownChannels(), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.AddedHops), "added-hops")
		})
	}
}
