package collective_test

import (
	"context"
	"testing"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

func dgx1() *topology.Graph { return topology.DGX1(topology.DefaultDGX1Config()) }

// TestEveryConstructorVerifies runs the output of every exported path that
// returns a *Schedule: each comes out stamped with its graph's live
// fingerprint, which only a passed Check (or CheckPatch, for a repair)
// grants, and each executes.
func TestEveryConstructorVerifies(t *testing.T) {
	ctx := context.Background()
	type built struct {
		s   *collective.Schedule
		run func(*collective.Schedule) error // nil: ExecuteCtx
	}
	must := func(t *testing.T, s *collective.Schedule, err error) built {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return built{s: s}
	}
	ccube := func(g *topology.Graph) collective.Config {
		return collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	}
	cases := map[string]func(t *testing.T) built{}
	for alg := collective.AlgRing; alg <= collective.AlgHalvingDoubling; alg++ {
		cases["Build/"+alg.String()] = func(t *testing.T) built {
			s, err := collective.Build(collective.Config{Graph: dgx1(), Algorithm: alg, Bytes: 1 << 20})
			return must(t, s, err)
		}
	}
	for prim := collective.PrimBroadcast; prim <= collective.PrimAllGather; prim++ {
		cases["BuildPrimitive/"+prim.String()] = func(t *testing.T) built {
			s, err := collective.BuildPrimitive(collective.PrimitiveConfig{Graph: dgx1(), Primitive: prim, Bytes: 1 << 20})
			return must(t, s, err)
		}
	}
	cases["BuildHierarchical"] = func(t *testing.T) built {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		s, err := collective.BuildHierarchical(collective.HierarchicalConfig{Cluster: mn, Bytes: 1 << 20, Chained: true})
		return must(t, s, err)
	}
	cases["Cache.Build"] = func(t *testing.T) built {
		s, err := collective.NewCache().Build(ccube(dgx1()))
		return must(t, s, err)
	}
	cases["Cache.Build/trees-override"] = func(t *testing.T) built {
		t1, t2 := collective.DGX1Trees()
		cfg := ccube(dgx1())
		cfg.Trees = []collective.Tree{t2, t1}
		s, err := collective.NewCache().Build(cfg)
		return must(t, s, err)
	}
	cases["Cache.Build/disabled"] = func(t *testing.T) built {
		c := collective.NewCache()
		c.SetEnabled(false)
		s, err := c.Build(ccube(dgx1()))
		return must(t, s, err)
	}
	cases["Cache.Build/same-shape-header"] = func(t *testing.T) built {
		c := collective.NewCache()
		cfg := ccube(dgx1())
		if _, err := c.Build(cfg); err != nil {
			t.Fatal(err)
		}
		cfg.Bytes++
		s, err := c.Build(cfg)
		if c.IncrementalBuilds() != 1 {
			t.Fatalf("%d same-shape headers served, want 1", c.IncrementalBuilds())
		}
		return must(t, s, err)
	}
	cases["BuildWith"] = func(t *testing.T) built {
		g := dgx1()
		cfg := collective.Config{Graph: g, Algorithm: collective.AlgSynth, Bytes: 1 << 20, SynthKey: "test"}
		s, err := collective.NewCache().BuildWith(cfg, func() (*collective.Schedule, error) {
			r, err := synth.Synthesize(ctx, g, cfg.Bytes, synth.Options{NoCache: true})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		})
		return must(t, s, err)
	}
	cases["BuildCached"] = func(t *testing.T) built {
		s, err := collective.BuildCached(ccube(dgx1()))
		return must(t, s, err)
	}
	cases["Assemble"] = func(t *testing.T) built {
		s, err := collective.Build(ccube(dgx1()))
		if err != nil {
			t.Fatal(err)
		}
		p := s.Program()
		spec := collective.AssembleSpec{Graph: s.Graph, Nodes: s.Nodes, Partition: s.Partition,
			InOrder: s.InOrder, Streams: s.Streams, Contract: s.Contract,
			Ops: append(p.Ops[:0:0], p.Ops...), Deps: make([][]int, len(p.Ops))}
		for i := range spec.Deps {
			for _, d := range p.Deps(i) {
				spec.Deps[i] = append(spec.Deps[i], int(d))
			}
		}
		a, err := collective.Assemble(spec)
		return must(t, a, err)
	}
	cases["AssembleForest"] = func(t *testing.T) built {
		g := dgx1()
		forest, err := synth.PackForest(g, g.GPUs(), synth.DefaultMaxTrees, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		var trees []collective.RoutedTree
		for _, pt := range forest.Trees {
			trees = append(trees, pt.RoutedTree)
		}
		s, err := collective.AssembleForest(g, g.GPUs(), chunk.Split(1<<20, 4*len(trees)), trees)
		return must(t, s, err)
	}
	cases["RepairSchedule"] = func(t *testing.T) built {
		g := dgx1()
		s, err := collective.Build(ccube(g))
		if err != nil {
			t.Fatal(err)
		}
		g.KillChannel(ridden(s)[0])
		r, _, err := collective.RepairSchedule(s, g.DownChannels(), nil)
		return must(t, r, err)
	}
	cases["Synthesize"] = func(t *testing.T) built {
		r, err := synth.Synthesize(ctx, dgx1(), 1<<20, synth.Options{NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return built{s: r.Schedule}
	}
	cases["RepairSchedule/resume"] = func(t *testing.T) built {
		g := dgx1()
		s, err := collective.Build(ccube(g))
		if err != nil {
			t.Fatal(err)
		}
		cp, dead := checkpointOf(t, s)
		g.KillChannel(dead)
		patched, rep, err := collective.RepairSchedule(s, g.DownChannels(), cp.Executed)
		if err != nil {
			t.Fatal(err)
		}
		rcp := cp.Remap(rep.OldToNew, patched.NumTransfers())
		return built{s: patched, run: func(s *collective.Schedule) error {
			_, _, err := s.ResumeOnCtx(ctx, rcp, g.Resources())
			return err
		}}
	}

	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			b := mk(t)
			if fp := b.s.BuiltFingerprint(); fp == 0 || fp != b.s.Graph.Fingerprint() {
				t.Fatalf("stamped %016x, live fingerprint %016x", fp, b.s.Graph.Fingerprint())
			}
			run := b.run
			if run == nil {
				run = func(s *collective.Schedule) error { _, err := s.ExecuteCtx(ctx); return err }
			}
			if err := run(b.s); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// ridden returns the channels s's transfers ride, in first-use order.
func ridden(s *collective.Schedule) []topology.ChannelID {
	seen := map[topology.ChannelID]bool{}
	var out []topology.ChannelID
	for _, op := range s.Program().Ops {
		if ch := op.ChannelID(); !op.Marker() && !seen[ch] {
			seen[ch] = true
			out = append(out, ch)
		}
	}
	return out
}

// checkpointOf aborts a run of s with a timed kill of one ridden channel
// halfway through, and returns the checkpoint of a nonempty executed prefix
// and the channel that died.
func checkpointOf(t *testing.T, s *collective.Schedule) (*collective.Checkpoint, topology.ChannelID) {
	t.Helper()
	healthy, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range ridden(s) {
		res := s.Graph.Resources()
		res[ch].FailAt(healthy.Total / 2)
		if _, cp, err := s.ExecuteCheckpointCtx(context.Background(), res); err != nil && cp != nil && cp.NumExecuted > 0 {
			return cp, ch
		}
	}
	t.Fatal("no timed kill aborts the schedule mid-run")
	return nil, -1
}
