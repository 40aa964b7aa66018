package collective

import (
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// checkFlat asserts the flat-IR layout of s: the op slice and the
// dependency CSR were reserved at their exact final size, and the CSR's
// rows cover exactly the ops and their deps.
func checkFlat(t *testing.T, name string, s *Schedule) {
	t.Helper()
	if cap(s.ops) != len(s.ops) || cap(s.depOff) != len(s.depOff) || cap(s.deps) != len(s.deps) {
		t.Fatalf("%s: reserved %d ops / %d offsets / %d deps, built %d / %d / %d", name,
			cap(s.ops), cap(s.depOff), cap(s.deps), len(s.ops), len(s.depOff), len(s.deps))
	}
	if err := s.CSRError(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestBuildReservesExactly runs checkFlat over every raw builder and
// repair's renumbering.
func TestBuildReservesExactly(t *testing.T) {
	topos := []struct {
		name   string
		graph  func() *topology.Graph
		shared bool
	}{
		{"dgx1", dgx1, false},
		{"fc:8", func() *topology.Graph { return topology.FullyConnected(8, 25e9, 3*des.Microsecond) }, true},
		{"hier16", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(16)) }, true},
	}
	for _, topo := range topos {
		for alg := AlgRing; alg <= AlgHalvingDoubling; alg++ {
			for _, chunks := range []int{0, 5} {
				name := topo.name + "/" + alg.String()
				s, err := build(Config{Graph: topo.graph(), Algorithm: alg, Bytes: 1 << 20, Chunks: chunks,
					AllowSharedChannels: topo.shared})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkFlat(t, name, s)
			}
		}
	}
	for _, chained := range []bool{false, true} {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		s, err := buildHierarchical(HierarchicalConfig{Cluster: mn, Bytes: 1 << 20, Chunks: 5, Chained: chained})
		if err != nil {
			t.Fatal(err)
		}
		checkFlat(t, "hierarchical", s)
	}
	for prim := PrimBroadcast; prim <= PrimAllGather; prim++ {
		s, err := buildPrimitive(PrimitiveConfig{Graph: dgx1(), Primitive: prim, Bytes: 1 << 20, Chunks: 5})
		if err != nil {
			t.Fatal(err)
		}
		checkFlat(t, prim.String(), s)
	}
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	g.KillChannel(usedChannels(s)[0])
	repaired, _, err := RepairSchedule(s, g.DownChannels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFlat(t, "repaired", repaired)
}

// TestBuildAllocationsDoNotScaleWithTransfers is the allocation gate of the
// flat IR: C-Cube on the 64-GPU cluster at 128 chunks emits 8x the
// transfers of the same build at 16 chunks, and must allocate within a
// small constant of it.
func TestBuildAllocationsDoNotScaleWithTransfers(t *testing.T) {
	g := topology.Hierarchy(topology.DefaultHierarchyConfig(64))
	allocs := func(chunks int) float64 {
		cfg := Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: chunks, AllowSharedChannels: true}
		return testing.AllocsPerRun(3, func() {
			if _, err := build(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(128)
	if large > small+8 {
		t.Fatalf("building 128 chunks allocates %.0f times, 16 chunks %.0f: allocations scale with transfers", large, small)
	}
}

// TestBuildRetainedBytes bounds the live heap one built cluster:64 C-Cube
// schedule at 128 chunks holds, measured as BenchmarkBuild's
// retained-B/transfer: the 32-byte op, its 4-byte CSR offset and about two
// 4-byte deps come to ~44 bytes a transfer. The best of three builds
// counts, so a stray allocation elsewhere in the process cannot fail it.
func TestBuildRetainedBytes(t *testing.T) {
	g := topology.Hierarchy(topology.DefaultHierarchyConfig(64))
	cluster := func() (*Schedule, error) {
		return build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128,
			AllowSharedChannels: true})
	}
	best := 0.0
	for i := 0; i < 3; i++ {
		per, _, err := retainedPerTransfer(cluster)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 || per < best {
			best = per
		}
	}
	if best > 48 {
		t.Fatalf("a built schedule retains %.1f B/transfer, want <= 48", best)
	}
	t.Logf("retained %.1f B/transfer", best)
}
