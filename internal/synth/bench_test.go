package synth

import (
	"context"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// BenchmarkSynthesize times cold compiles (NoCache) on the fabrics and
// message sizes the served synth_irregular requests compile for: the DGX-1,
// an asymmetric 8-GPU mesh and a 16-GPU random 4-regular graph, cycling
// 1-256 MiB. One op is one Synthesize — the packing search, every plan variant ranked
// by its bound, the finalists emitted, verified and executed. Besides
// ns/op, B/op and allocs/op it reports ns/variant, the cost per ranked plan.
func BenchmarkSynthesize(b *testing.B) {
	fabrics := []struct {
		name  string
		graph func() *topology.Graph
	}{
		{"dgx1", dgx1},
		{"fcasym8", func() *topology.Graph { return topology.AsymmetricFullyConnected(8, 25e9, des.Microsecond, 1) }},
		{"rr16", func() *topology.Graph { return topology.RandomRegular(16, 4, 25e9, des.Microsecond, 1) }},
	}
	sizes := []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}
	for _, f := range fabrics {
		b.Run(f.name, func(b *testing.B) {
			g := f.graph()
			variants := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Synthesize(context.Background(), g, sizes[i%len(sizes)], Options{NoCache: true})
				if err != nil {
					b.Fatal(err)
				}
				variants += res.Report.Variants
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(variants), "ns/variant")
		})
	}
}

// BenchmarkPackForest times one PackForest at the default tree ceiling, as
// a compile that misses the memo runs it, on the served fabrics and a
// 32-GPU random 4-regular graph, where the packer's cost in the participant
// count shows: each greedy pass is O(T·P³), and a fabric whose forests never
// reach the channel bound (fcasym8, rr32) runs all P rotations.
func BenchmarkPackForest(b *testing.B) {
	fabrics := []struct {
		name  string
		graph *topology.Graph
	}{
		{"dgx1", dgx1()},
		{"fcasym8", topology.AsymmetricFullyConnected(8, 25e9, des.Microsecond, 1)},
		{"rr16", topology.RandomRegular(16, 4, 25e9, des.Microsecond, 1)},
		{"rr32", topology.RandomRegular(32, 4, 25e9, des.Microsecond, 1)},
	}
	for _, f := range fabrics {
		b.Run(f.name, func(b *testing.B) {
			nodes := f.graph.GPUs()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := PackForest(f.graph, nodes, DefaultMaxTrees, 0, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
