package main

import (
	"context"
	"math"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// On a fabric where every GPU has a single egress link of bandwidth β the
// bound is the textbook 2(P−1)/P·D/β.
func TestLowerBoundUniformFabric(t *testing.T) {
	const p, beta = 8, 25e9
	g := topology.NewGraph()
	ids := make([]topology.NodeID, p)
	for i := range ids {
		ids[i] = g.AddNode("GPU", topology.GPU)
	}
	for i := range ids {
		g.AddChannel(ids[i], ids[(i+1)%p], beta, des.Microsecond, "link")
	}
	d := 64 * mib
	want := 2 * float64(p-1) / p * float64(d) / beta * 1e9
	if got := lowerBound(g, d); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("lowerBound = %v ns, want %v ns", got, want)
	}
}

// No schedule may finish faster than the bound: every built-in on the served
// fabrics, and synthesis on the irregular ones, at three sizes.
func TestLowerBoundBelowMakespan(t *testing.T) {
	ctx := context.Background()
	sizes := []int64{mib, 16 * mib, 256 * mib}
	check := func(topo string, what string, g *topology.Graph, size int64, total des.Time) {
		t.Helper()
		if lb := lowerBound(g, size); float64(total) < lb {
			t.Errorf("%s %s %d B: makespan %d ns beats the lower bound %.0f ns", topo, what, size, total, lb)
		}
	}
	for _, topo := range []string{"dgx1", "dgx1-low", "fc:8", "fc:16", "cluster:16"} {
		g, err := buildTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range autotuneOrder {
			for _, size := range sizes {
				s, err := collective.Build(collective.Config{Graph: g, Algorithm: alg, Bytes: size, AllowSharedChannels: true})
				if err != nil {
					t.Fatalf("%s %v %d B: %v", topo, alg, size, err)
				}
				res, err := s.ExecuteCtx(ctx)
				if err != nil {
					t.Fatalf("%s %v %d B: %v", topo, alg, size, err)
				}
				check(topo, alg.String(), g, size, res.Total)
			}
		}
	}
	for _, topo := range []string{"fcasym:8", "rr:16"} {
		g, err := buildTopology(topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range sizes {
			res, err := synth.Synthesize(ctx, g, size, synth.Options{NoCache: true})
			if err != nil {
				t.Fatalf("%s synth %d B: %v", topo, size, err)
			}
			sim, err := res.Schedule.ExecuteCtx(ctx)
			if err != nil {
				t.Fatalf("%s synth %d B: %v", topo, size, err)
			}
			check(topo, "synth", g, size, sim.Total)
		}
	}
}
