package collective

import (
	"context"
	"strings"
	"testing"

	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// makespanSlack bounds how far the DES may land above the static lower
// bound. Ring and the tree family execute at exactly the bound (ratio 1.0);
// halving-doubling's log-distance exchanges queue behind each other in ways
// neither the critical path nor any single channel's load captures, peaking
// at ratio ~2.12 on the 32-GPU hierarchy. A drift of the DES cost model or
// of the analyzer's — either direction — breaks one of the two inequalities.
const makespanSlack = 2.5

// TestVerifyDeepGrid is the fig13/fig14-shaped acceptance matrix for the
// performance proofs: every algorithm on every topology family must pass
// contention and wait-for, and its simulated makespan must bracket the
// static bound: bound <= simulated <= slack * bound.
func TestVerifyDeepGrid(t *testing.T) {
	lat := 5 * des.Microsecond
	topos := []struct {
		name  string
		graph func() *topology.Graph
	}{
		{"fc4", func() *topology.Graph { return topology.FullyConnected(4, 10e9, lat) }},
		{"fc8", func() *topology.Graph { return topology.FullyConnected(8, 10e9, lat) }},
		{"fc16", func() *topology.Graph { return topology.FullyConnected(16, 10e9, lat) }},
		{"dgx1", dgx1},
		{"hier16", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(16)) }},
		{"hier32", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(32)) }},
	}
	algos := []Algorithm{
		AlgRing, AlgTree, AlgTreeOverlap,
		AlgDoubleTree, AlgDoubleTreeOverlap, AlgHalvingDoubling,
	}
	for _, tp := range topos {
		for _, alg := range algos {
			t.Run(tp.name+"/"+alg.String(), func(t *testing.T) {
				s, err := Build(Config{
					Graph: tp.graph(), Algorithm: alg, Bytes: 1 << 20, Chunks: 8,
				})
				if err != nil {
					// fc4 cannot host two edge-disjoint trees; that combination
					// is exactly what AllowSharedChannels exists for and is
					// covered by the negative test below.
					t.Skipf("not buildable: %v", err)
				}
				if err := s.VerifyDeep(); err != nil {
					t.Fatalf("VerifyDeep: %v", err)
				}
				bound, err := s.MakespanBound()
				if err != nil {
					t.Fatalf("MakespanBound: %v", err)
				}
				if bound <= 0 {
					t.Fatalf("MakespanBound = %s, want > 0", bound)
				}
				res, err := s.ExecuteCtx(context.Background())
				if err != nil {
					t.Fatalf("Execute: %v", err)
				}
				if res.Total < bound {
					t.Errorf("simulated %s beats the provable lower bound %s: a cost model drifted",
						res.Total, bound)
				}
				if max := des.Time(makespanSlack * float64(bound)); res.Total > max {
					t.Errorf("simulated %s exceeds %.1fx the bound %s: schedule degraded by queueing the analyzer cannot see",
						res.Total, makespanSlack, bound)
				}
			})
		}
	}
}

// TestVerifyDeepFlagsSharedDoubleTree is the contention negative: forcing
// the two trees of an overlapped double tree onto fc4's single channel per
// GPU pair delivers every chunk — Validate stays green — but the claimed
// overlap serializes on the shared links, which VerifyDeep must reject.
// This is the paper's disjoint-channel requirement as a failing test.
func TestVerifyDeepFlagsSharedDoubleTree(t *testing.T) {
	s, err := Build(Config{
		Graph:     topology.FullyConnected(4, 10e9, 5*des.Microsecond),
		Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8,
		AllowSharedChannels: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("shared channels do not break delivery; Validate must pass: %v", err)
	}
	err = s.VerifyDeep()
	if err == nil {
		t.Fatal("VerifyDeep accepted an overlapped double tree on shared channels")
	}
	if !strings.Contains(err.Error(), "contention") {
		t.Fatalf("want a contention violation, got: %v", err)
	}
}

// TestMakespanBoundDetectsCostDrift is the makespan negative: inflating the
// program's byte counts after the fact yields a bound the real execution
// beats, so the grid's bound <= simulated assertion would fail — proving the
// bracket actually pins the analyzer's cost model to the DES's.
func TestMakespanBoundDetectsCostDrift(t *testing.T) {
	s, err := Build(Config{
		Graph: dgx1(), Algorithm: AlgRing, Bytes: 1 << 20, Chunks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := s.Program().Clone()
	for i := range p.Ops {
		p.Ops[i].Bytes *= 2
	}
	inflated, err := schedcheck.MakespanBound(p)
	if err != nil {
		t.Fatal(err)
	}
	if inflated <= res.Total {
		t.Fatalf("doubling every transfer's bytes left the bound (%s) within the simulated time (%s); the bound is not tracking the cost model",
			inflated, res.Total)
	}
}
