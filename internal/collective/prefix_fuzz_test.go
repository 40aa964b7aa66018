package collective_test

import (
	"context"
	"reflect"
	"testing"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/schedcheck"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// FuzzPrefixHeader fuzzes the prefix header over a fabric (fc:n up to 16,
// the DGX-1, cluster:n up to 32), a schedule kind (tree-overlap, C-Cube or
// a packed synthesized forest of its first trees), the sharing flag (for a
// forest, whether packing may detour) and chunk counts K >= k >= the stream
// count. A cache holding the K-chunk carrier must serve the k-chunk request
// as a header over the carrier's first ops: deep-equal to a cold build,
// running identically, sharing the carrier's ops, and leaving RetainedBytes
// at the carrier's bytes. Overlapped trees sharing a channel are laid out
// tree-major, so their carrier must serve only its own chunk count.
func FuzzPrefixHeader(f *testing.F) {
	f.Add(uint8(1), uint8(0), uint8(1), false, uint8(15), uint8(6))
	f.Add(uint8(1), uint8(0), uint8(0), true, uint8(40), uint8(0))
	f.Add(uint8(0), uint8(6), uint8(2), false, uint8(30), uint8(11))
	f.Add(uint8(2), uint8(30), uint8(1), true, uint8(127), uint8(63))
	f.Add(uint8(2), uint8(14), uint8(5), false, uint8(9), uint8(9))
	f.Fuzz(func(t *testing.T, fabric, size, kind uint8, shared bool, bigK, smallK uint8) {
		var g *topology.Graph
		switch fabric % 3 {
		case 0:
			g = topology.FullyConnected(2+int(size)%15, topology.NVLinkBandwidth, topology.NVLinkLatency)
		case 1:
			g = topology.DGX1(topology.DefaultDGX1Config())
		default:
			g = topology.Hierarchy(topology.DefaultHierarchyConfig(2 + int(size)%31))
		}
		K := 1 + int(bigK)%128
		k := 1 + int(smallK)%K
		const bytes = 64 << 20

		c := collective.NewCache()
		var carrier, header, cold *collective.Schedule
		var err error
		switch kind % 3 {
		case 0, 1:
			cfg := collective.Config{Graph: g, Algorithm: collective.AlgTreeOverlap, Bytes: bytes, Chunks: K, AllowSharedChannels: shared}
			if kind%3 == 1 {
				cfg.Algorithm = collective.AlgDoubleTreeOverlap
			}
			if carrier, err = c.Build(cfg); err != nil {
				t.Skip(err) // no disjoint channels for the trees without sharing
			}
			cfg.Chunks, cfg.Bytes = k, bytes+1
			if header, err = c.Build(cfg); err != nil {
				t.Fatal(err)
			}
			if cold, err = collective.Build(cfg); err != nil {
				t.Fatal(err)
			}
			if schedcheck.PhasePrefixes(carrier.Program()) == nil {
				// Trees sharing a channel keep the tree-major layout: only
				// the carrier's own chunk count is served from it.
				exact := header.Partition.NumChunks() == carrier.Partition.NumChunks()
				if got := c.IncrementalBuilds() == 1; got != exact || !reflect.DeepEqual(header.Program(), cold.Program()) {
					t.Fatalf("K=%d k=%d: a tree-major carrier served a %d-chunk request (header %v)", K, k, header.Partition.NumChunks(), got)
				}
				return
			}
		default:
			forest, err := synth.PackForest(g, g.GPUs(), synth.DefaultMaxTrees, 0, shared)
			if err != nil {
				t.Skip(err)
			}
			trees := make([]collective.RoutedTree, 1+int(kind/3)%len(forest.Trees))
			for i := range trees {
				trees[i] = forest.Trees[i].RoutedTree
			}
			streams := len(trees)
			K, k = max(K, streams), max(k, streams)
			cfg := collective.Config{Graph: g, Algorithm: collective.AlgSynth, SynthKey: "fuzz", Bytes: bytes}
			build := func(cfg collective.Config, k int) (*collective.Schedule, error) {
				part := chunk.Split(cfg.Bytes, k)
				return c.BuildWith(cfg, func() (*collective.Schedule, error) {
					if s := c.Header(cfg, streams, part); s != nil {
						return s, nil
					}
					return collective.AssembleForest(g, g.GPUs(), part, trees)
				})
			}
			if carrier, err = build(cfg, K); err != nil {
				t.Skip(err) // a tree the chunk pass cannot lay out
			}
			cfg.Bytes++
			if header, err = build(cfg, k); err != nil {
				t.Fatal(err)
			}
			if cold, err = collective.AssembleForest(g, g.GPUs(), chunk.Split(cfg.Bytes, k), trees); err != nil {
				t.Fatal(err)
			}
		}
		retained := c.RetainedBytes()
		if c.IncrementalBuilds() != 1 {
			t.Fatalf("K=%d k=%d: the request was not served by a header over the carrier", K, k)
		}
		hp, cp := header.Program(), cold.Program()
		if !reflect.DeepEqual(hp, cp) || !reflect.DeepEqual(header.Partition, cold.Partition) {
			t.Fatalf("K=%d k=%d: the header differs from a cold build", K, k)
		}
		if &hp.Ops[0] != &carrier.Program().Ops[0] {
			t.Fatalf("K=%d k=%d: the header does not share the carrier's ops", K, k)
		}
		full := carrier.Program()
		if want := int64(len(full.Ops))*int64(reflect.TypeOf(full.Ops).Elem().Size()) + 4*int64(len(full.DepOff)+len(full.DepList)); retained != want {
			t.Fatalf("K=%d k=%d: RetainedBytes = %d, want the carrier's %d once", K, k, retained, want)
		}
		ctx := context.Background()
		rh, err := header.ExecuteCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := cold.ExecuteCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rh, rc) {
			t.Fatalf("K=%d k=%d: the header runs in %v, a cold build in %v", K, k, rh.Total, rc.Total)
		}
	})
}
