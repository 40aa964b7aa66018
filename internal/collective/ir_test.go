package collective

import (
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// checkFlat asserts the flat-IR layout of s: the op slice and the deps arena
// were reserved at their exact final size, every op's deps are a
// three-index subslice (cap == len, so an append reallocates instead of
// overwriting the next op's deps), and the arena holds exactly the ops'
// deps.
func checkFlat(t *testing.T, name string, s *Schedule) {
	t.Helper()
	if cap(s.ops) != len(s.ops) || cap(s.deps) != len(s.deps) {
		t.Fatalf("%s: reserved %d ops / %d deps, built %d / %d", name, cap(s.ops), cap(s.deps), len(s.ops), len(s.deps))
	}
	n := 0
	for i := range s.ops {
		if d := s.ops[i].Deps; cap(d) != len(d) {
			t.Fatalf("%s: op %d deps have spare capacity %d", name, i, cap(d)-len(d))
		}
		n += len(s.ops[i].Deps)
	}
	if n != len(s.deps) {
		t.Fatalf("%s: ops hold %d deps, the arena %d", name, n, len(s.deps))
	}
}

// TestBuildReservesExactly runs checkFlat over every builder, the codec and
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
				s, err := Build(Config{Graph: topo.graph(), Algorithm: alg, Bytes: 1 << 20, Chunks: chunks,
					AllowSharedChannels: topo.shared})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkFlat(t, name, s)
				dec, err := decodeSchedule(encodeSchedule(s), s.Graph)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkFlat(t, name+"/decoded", dec)
			}
		}
	}
	for _, chained := range []bool{false, true} {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildHierarchical(HierarchicalConfig{Cluster: mn, Bytes: 1 << 20, Chunks: 5, Chained: chained})
		if err != nil {
			t.Fatal(err)
		}
		checkFlat(t, "hierarchical", s)
	}
	for prim := PrimBroadcast; prim <= PrimAllGather; prim++ {
		s, err := BuildPrimitive(PrimitiveConfig{Graph: dgx1(), Primitive: prim, Bytes: 1 << 20, Chunks: 5})
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
			if _, err := Build(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(128)
	if large > small+8 {
		t.Fatalf("building 128 chunks allocates %.0f times, 16 chunks %.0f: allocations scale with transfers", large, small)
	}
}
