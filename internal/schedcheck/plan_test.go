package schedcheck_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// planMatrix is the program grid the planned verifier is held to the
// reference and to the full triangle on: every built-in on four topologies
// at two chunk counts, the multi-box hierarchy in both modes, synthesis, a
// repaired schedule, the standalone primitives and a same-shape header
// served by the cache at a new size.
func planMatrix(t *testing.T) map[string]*schedcheck.Program {
	t.Helper()
	progs := map[string]*schedcheck.Program{}
	topos := []struct {
		name   string
		graph  func() *topology.Graph
		shared bool
	}{
		{"fc4", func() *topology.Graph { return fullyConnected(4) }, true},
		{"fc8", func() *topology.Graph { return fullyConnected(8) }, true},
		{"dgx1", dgx1, false},
		{"cluster16", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(16)) }, true},
	}
	for _, tp := range topos {
		for _, alg := range allAlgorithms {
			for _, chunks := range []int{8, 32} {
				progs[fmt.Sprintf("%s/%s/%d", tp.name, alg, chunks)] = buildProgram(t, collective.Config{
					Graph: tp.graph(), Algorithm: alg, Bytes: 1 << 20, Chunks: chunks,
					AllowSharedChannels: tp.shared,
				})
			}
		}
	}
	for _, chained := range []bool{false, true} {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		s, err := collective.BuildHierarchical(collective.HierarchicalConfig{
			Cluster: mn, Bytes: 1 << 20, Chunks: 16, Chained: chained,
		})
		if err != nil {
			t.Fatal(err)
		}
		progs[fmt.Sprintf("hier24/chained=%v", chained)] = s.Program()
	}
	g := topology.RandomRegular(16, 4, 25e9, des.Microsecond, 1)
	res, err := synth.Synthesize(context.Background(), g, 1<<20, synth.Options{MaxChunks: 8, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	progs["rr16/synth"] = res.Schedule.Program()

	rg := dgx1()
	s, err := collective.Build(collective.Config{Graph: rg, Algorithm: collective.AlgDoubleTreeOverlap,
		Bytes: 1 << 20, Chunks: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range s.Program().Ops {
		if !op.Marker() && i%3 == 0 {
			rg.KillChannel(op.ChannelID())
			break
		}
	}
	repaired, _, err := collective.RepairSchedule(s, rg.DownChannels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	progs["dgx1/repaired"] = repaired.Program()

	for _, prim := range []collective.Primitive{
		collective.PrimBroadcast, collective.PrimReduce,
		collective.PrimReduceScatter, collective.PrimAllGather,
	} {
		s, err := collective.BuildPrimitive(collective.PrimitiveConfig{
			Graph: dgx1(), Primitive: prim, Bytes: 1 << 20, Chunks: 32,
		})
		if err != nil {
			t.Fatal(err)
		}
		progs["dgx1/"+prim.String()] = s.Program()
	}

	c := collective.NewCache()
	cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 32}
	if _, err := c.Build(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Bytes = 3 << 19
	patched, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.IncrementalBuilds() != 1 {
		t.Fatal("second build was not served by a header over its cached sibling")
	}
	progs["dgx1/sibling-patched"] = patched.Program()
	return progs
}

// TestCheckMatchesReference holds Check to the reference verifier on every
// program of the matrix: pristine; with one dependency dropped from every
// seventh op that has one (many failures at once); and, one at a time, with
// single dependencies dropped from a spread of ops, so a failure the plan
// misses cannot hide behind another one that sends the report down the exact
// path. The matrix must exercise the planned mode and the barrier hubs.
func TestCheckMatchesReference(t *testing.T) {
	planned, hubs := 0, 0
	for name, p := range planMatrix(t) {
		t.Run(name, func(t *testing.T) {
			r := checkBoth(t, p)
			if !r.OK() {
				t.Fatal(r.Err())
			}
			assertMatchesReference(t, p, r)
			if pl := schedcheck.CheckPlan(p); pl.BandWords < pl.FullWords {
				planned++
				if pl.Hubs > 0 {
					hubs++
				}
			}
			broken := p.Clone()
			deps := depLists(p)
			for i := range deps {
				if i%7 == 0 && len(deps[i]) > 0 {
					deps[i] = deps[i][1:]
				}
			}
			broken.SetDeps(deps)
			assertMatchesReference(t, broken, checkBoth(t, broken))
			stride := len(p.Ops)/60 + 1
			for i := 0; i < len(p.Ops); i += stride {
				for j := range p.Deps(i) {
					broken := p.Clone()
					deps := depLists(p)
					deps[i] = append(deps[i][:j:j], deps[i][j+1:]...)
					broken.SetDeps(deps)
					assertMatchesReference(t, broken, checkBoth(t, broken))
				}
			}
		})
	}
	if planned < 10 || hubs < 3 {
		t.Fatalf("only %d programs ran the planned mode, %d of them with hubs", planned, hubs)
	}
}

// TestBandAnswersMatchFullTriangle checks every question the planned mode
// queued against the full triangle, and the rule that settles questions
// without the band (direct dependency or barrier hub) for soundness over
// every pair (every 7th source on large programs).
func TestBandAnswersMatchFullTriangle(t *testing.T) {
	for name, p := range planMatrix(t) {
		t.Run(name, func(t *testing.T) {
			pl := schedcheck.CheckPlan(p)
			reaches, err := schedcheck.Reaches(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range pl.Queued {
				if got, want := pl.Band(q[0], q[1]), reaches(q[0], q[1]); got != want {
					t.Fatalf("band says %d reaches %d = %v, full triangle %v", q[0], q[1], got, want)
				}
			}
			stride := 1
			if len(p.Ops) > 2000 {
				stride = 7
			}
			for a := 0; a < len(p.Ops); a += stride {
				for b := range p.Ops {
					if pl.Settled != nil && pl.Settled(a, b) && !reaches(a, b) {
						t.Fatalf("settled %d reaches %d without a path", a, b)
					}
				}
			}
		})
	}
}

// TestBandMemory is the closure memory gate on the served cluster shapes:
// at 96 chunks on the 64-GPU cluster, the band of every tree schedule stays
// within 5% of the full triangle (a breadth-first order without hubs needs
// 14-77%).
func TestBandMemory(t *testing.T) {
	g := topology.Hierarchy(topology.DefaultHierarchyConfig(64))
	for _, alg := range []collective.Algorithm{
		collective.AlgDoubleTreeOverlap, collective.AlgDoubleTree,
		collective.AlgTreeOverlap, collective.AlgTree,
	} {
		p := buildProgram(t, collective.Config{
			Graph: g, Algorithm: alg, Bytes: 64 << 20, Chunks: 96, AllowSharedChannels: true,
		})
		pl := schedcheck.CheckPlan(p)
		if !pl.Report.OK() {
			t.Fatal(pl.Report.Err())
		}
		ratio := float64(pl.BandWords) / float64(pl.FullWords)
		t.Logf("%s: %d ops, band %d words, %.4f of the full triangle", alg, len(p.Ops), pl.BandWords, ratio)
		if ratio > 0.05 {
			t.Errorf("%s: band is %.3f of the full triangle, want <= 0.05", alg, ratio)
		}
	}
}

// TestFailingCheckStaysBanded drops every dependency of one mid-schedule
// broadcast hop of the cluster:64 C-Cube schedule (128 chunks, 16,256 ops).
// The hop is picked by role: a delivery that depends on its own chunk's
// data, so dropping its dependencies is a real hazard. (A hop whose only
// dependency is the FIFO edge to the chunk before, like a leaf's reduce
// send, stays correct without it.) The report must still equal both
// references', and the exact reporting pass must plan its questions into
// the band rather than fall back to the full triangle: the closure stays
// under a tenth of it.
func TestFailingCheckStaysBanded(t *testing.T) {
	p := buildProgram(t, collective.Config{
		Graph:     topology.Hierarchy(topology.DefaultHierarchyConfig(64)),
		Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128,
		AllowSharedChannels: true,
	}).Clone()
	dataDep := func(i int) bool {
		return slices.ContainsFunc(p.Deps(i), func(d int32) bool { return p.Ops[d].Chunk == p.Ops[i].Chunk })
	}
	i := len(p.Ops) / 2
	for p.Ops[i].Marker() || p.Ops[i].Final < 0 || !dataDep(i) {
		i++
	}
	deps := depLists(p)
	deps[i] = nil
	p.SetDeps(deps)
	pl := schedcheck.CheckPlan(p)
	if pl.Report.OK() {
		t.Fatalf("dropping every dependency of op %d went unnoticed", i)
	}
	assertMatchesReference(t, p, checkBoth(t, p))
	ratio := float64(pl.BandWords) / float64(pl.FullWords)
	t.Logf("op %d: %d violations, band %d words, %.4f of the full triangle",
		i, len(pl.Report.Violations), pl.BandWords, ratio)
	if ratio >= 0.10 {
		t.Errorf("band is %.3f of the full triangle, want < 0.10", ratio)
	}
}
