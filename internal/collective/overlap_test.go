package collective_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// TestOverlapEfficiencyMatchesReference pins the overlap-efficiency gauge to
// the reference kept in metrics_reference_test.go, bit for bit, on every
// built-in (including the shared-channel cluster:64 C-Cube served by
// simulate_scale), a hierarchical schedule and synthesized ones.
func TestOverlapEfficiencyMatchesReference(t *testing.T) {
	type buildFn func() (*collective.Schedule, error)
	cases := map[string]buildFn{}
	topos := []struct {
		name   string
		graph  func() *topology.Graph
		shared bool
	}{
		{"dgx1", dgx1, false},
		{"fc:8", func() *topology.Graph { return topology.FullyConnected(8, 25e9, des.Microsecond) }, true},
		{"hier16", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(16)) }, true},
	}
	for _, topo := range topos {
		for alg := collective.AlgRing; alg <= collective.AlgHalvingDoubling; alg++ {
			for _, chunks := range []int{0, 8} {
				cfg := collective.Config{Graph: topo.graph(), Algorithm: alg, Bytes: 16 << 20, Chunks: chunks,
					AllowSharedChannels: topo.shared}
				cases[fmt.Sprintf("%s/%v/%d", topo.name, alg, chunks)] = func() (*collective.Schedule, error) {
					return collective.Build(cfg)
				}
			}
		}
	}
	cases["cluster64/ccube/128"] = func() (*collective.Schedule, error) {
		return collective.Build(collective.Config{Graph: topology.Hierarchy(topology.DefaultHierarchyConfig(64)),
			Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128, AllowSharedChannels: true})
	}
	cases["hierarchical"] = func() (*collective.Schedule, error) {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(2))
		if err != nil {
			return nil, err
		}
		return collective.BuildHierarchical(collective.HierarchicalConfig{Cluster: mn, Bytes: 16 << 20, Chunks: 8, Chained: true})
	}
	synthTopos := map[string]func() *topology.Graph{
		"dgx1":     dgx1,
		"fcasym:8": func() *topology.Graph { return topology.AsymmetricFullyConnected(8, 25e9, des.Microsecond, 1) },
		"rr:16":    func() *topology.Graph { return topology.RandomRegular(16, 4, 25e9, des.Microsecond, 1) },
	}
	for name, graph := range synthTopos {
		for _, size := range []int64{1 << 20, 64 << 20} {
			cases[fmt.Sprintf("synth/%s/%d", name, size)] = func() (*collective.Schedule, error) {
				res, err := synth.Synthesize(context.Background(), graph(), size, synth.Options{NoCache: true})
				if err != nil {
					return nil, err
				}
				return res.Schedule, nil
			}
		}
	}
	overlapped := 0
	for name, build := range cases {
		s, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want, err := s.OverlapEfficiencies()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: overlap efficiency %v, reference %v", name, got, want)
		}
		if want > 0 {
			overlapped++
		}
	}
	if overlapped < len(cases)/4 {
		t.Errorf("only %d of %d schedules overlap at all: the comparison barely exercises the span union", overlapped, len(cases))
	}
}
