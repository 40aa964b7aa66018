package gpusim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// oracleCase is one schedule kind for the differential oracle. want returns
// the data contract per node and element (NaN = unconstrained); nil means
// every node ends with the exact element-wise sum.
type oracleCase struct {
	name  string
	build func(t *testing.T) *collective.Schedule
	want  func(in [][]float64) [][]float64
}

// TestDifferentialOracle runs every schedule kind through all three
// executors. The two data executors — ExecuteData's sequential walk and the
// concurrent interpreter — run on integer-valued inputs, whose sums are
// exact in any order; both must produce the same buffers, and those buffers
// must meet the schedule's data contract. The timing executor (the DES)
// must start every transfer only after all of its dependencies have ended.
func TestDifferentialOracle(t *testing.T) {
	const elems = 4096
	var cases []oracleCase
	for _, topo := range []struct {
		name   string
		graph  func() *topology.Graph
		shared bool
	}{{"fc:8", func() *topology.Graph { return fc(8) }, true}, {"dgx1", dgx1, false}} {
		for alg := collective.AlgRing; alg <= collective.AlgHalvingDoubling; alg++ {
			cases = append(cases, oracleCase{name: topo.name + "/" + alg.String(), build: func(t *testing.T) *collective.Schedule {
				return build(t, collective.Config{Graph: topo.graph(), Algorithm: alg, Chunks: 8, AllowSharedChannels: topo.shared})
			}})
		}
	}
	for _, topo := range []struct {
		name  string
		graph func() *topology.Graph
	}{
		{"dgx1", dgx1},
		{"fcasym:8", func() *topology.Graph { return topology.AsymmetricFullyConnected(8, 25e9, des.Microsecond, 1) }},
		{"rr:16", func() *topology.Graph { return topology.RandomRegular(16, 4, 25e9, des.Microsecond, 1) }},
	} {
		cases = append(cases, oracleCase{name: topo.name + "/synth", build: func(t *testing.T) *collective.Schedule {
			res, err := synth.Synthesize(context.Background(), topo.graph(), 1<<20, synth.Options{MaxChunks: 8, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			return res.Schedule
		}})
	}
	cases = append(cases,
		oracleCase{name: "dgx1/repaired", build: func(t *testing.T) *collective.Schedule {
			s := build(t, collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Chunks: 8})
			killRidden(t, s.Program(), anyChannel)
			repaired, _, err := collective.RepairSchedule(s, s.Graph.DownChannels(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return repaired
		}},
		oracleCase{name: "dgx1/patched", build: func(t *testing.T) *collective.Schedule {
			g := dgx1()
			s := build(t, collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Chunks: 8})
			// A degraded link with a parallel sibling: the patch rebalances
			// its load across the pair.
			slow := ridden(t, s.Program(), func(_ int, ch *topology.Channel) bool {
				return len(g.ChannelsBetween(ch.From, ch.To)) > 1
			})
			g.DegradeChannel(slow, 8)
			patched, rep, err := collective.RepairSchedule(s, []topology.ChannelID{slow}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Rebalanced == 0 {
				t.Fatalf("degraded channel %d: nothing rebalanced (%v)", slow, rep.Routes)
			}
			return patched
		}},
		oracleCase{name: "dgx1/derived", build: func(t *testing.T) *collective.Schedule {
			// A separated double tree derived from a larger carrier: each
			// tree's first chunks of both phases, the barrier re-pointed.
			c := collective.NewCache()
			cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTree, Bytes: 1 << 20, Chunks: 24}
			if _, err := c.Build(cfg); err != nil {
				t.Fatal(err)
			}
			cfg.Chunks = 9
			s, err := c.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.IncrementalBuilds() != 1 {
				t.Fatal("the 9-chunk double tree was not derived from the 24-chunk carrier")
			}
			return s
		}},
		oracleCase{name: "dgx1/resumed", build: resumed},
		oracleCase{name: "hierarchical/2-boxes", build: func(t *testing.T) *collective.Schedule {
			return hierSchedule(t, 2, 8, true)
		}},
	)
	root := collective.InorderTree(8).Root
	cases = append(cases,
		primitiveCase(collective.PrimBroadcast, func(in [][]float64, n, j int) float64 { return in[root][j] }),
		primitiveCase(collective.PrimReduce, func(in [][]float64, n, j int) float64 {
			if n != root {
				return math.NaN()
			}
			return sumAt(in, j)
		}),
		primitiveCase(collective.PrimReduceScatter, func(in [][]float64, n, j int) float64 {
			if j/(elems/8) != (n+1)%8 { // node n owns chunk n+1
				return math.NaN()
			}
			return sumAt(in, j)
		}),
		primitiveCase(collective.PrimAllGather, func(in [][]float64, n, j int) float64 { return in[j/(elems/8)][j] }),
	)

	rng := rand.New(rand.NewSource(21))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.build(t)
			desRespectsDeps(t, s)
			in := make([][]float64, len(s.Nodes))
			in32 := make([][]float32, len(s.Nodes))
			for n := range in {
				in[n] = make([]float64, elems)
				in32[n] = make([]float32, elems)
				for j := range in[n] {
					in[n][j] = float64(rng.Intn(200) - 100)
					in32[n][j] = float32(in[n][j])
				}
			}
			ref, err := s.ExecuteData(in)
			if err != nil {
				t.Fatalf("ExecuteData: %v", err)
			}
			res, err := Run(s.Program(), in32, Config{})
			if err != nil {
				t.Fatalf("interpreter: %v", err)
			}
			var want [][]float64
			if c.want != nil {
				want = c.want(in)
			}
			for n := range ref {
				for j := range ref[n] {
					if got := float64(res.Buffers[n][j]); got != ref[n][j] {
						t.Fatalf("node %d elem %d: interpreter %v, ExecuteData %v", n, j, got, ref[n][j])
					}
					w := sumAt(in, j)
					if want != nil {
						w = want[n][j]
					}
					if !math.IsNaN(w) && ref[n][j] != w {
						t.Fatalf("node %d elem %d = %v, contract wants %v", n, j, ref[n][j], w)
					}
				}
			}
		})
	}
}

// desRespectsDeps is the timing leg of the oracle. ExecuteOnCtx instantiates
// the schedule into a fresh task graph, one task per transfer in id order:
// task i is named by transfer i's kind and occupies transfer i's channel,
// and no task may start before every one of its dependencies has ended.
func desRespectsDeps(t *testing.T, s *collective.Schedule) {
	t.Helper()
	res := s.Graph.Resources()
	_, g, err := s.ExecuteOnCtx(context.Background(), res)
	if err != nil {
		t.Fatalf("ExecuteOnCtx: %v", err)
	}
	p := s.Program()
	if g.NumTasks() != len(p.Ops) {
		t.Fatalf("DES ran %d tasks for %d transfers", g.NumTasks(), len(p.Ops))
	}
	for i, op := range p.Ops {
		var want *des.Resource
		if !op.Marker() {
			want = res[op.Channel]
		}
		if g.Label(i) != op.Kind() || g.Resource(i) != want {
			t.Fatalf("task %d is a %s on %v, transfer %d (%s) is not", i, g.Label(i), g.Resource(i), i, p.Label(i))
		}
		for _, d := range p.Deps(i) {
			if end := g.End(int(d)); g.Start(i) < end {
				t.Fatalf("transfer %d (%s) starts at %v, before dependency %d (%s) ends at %v",
					i, p.Label(i), g.Start(i), d, p.Label(int(d)), end)
			}
		}
	}
}

// resumed checkpoints the C-Cube schedule on a timed link death, patches the
// unexecuted remainder around the dead link, and resumes it on the same
// virtual clock. The link then recovers, as at the end of a churn epoch, and
// an empty repair restamps the patched schedule for the healed fabric, so
// every executor can run its whole program, executed prefix included.
func resumed(t *testing.T) *collective.Schedule {
	ctx := context.Background()
	g := dgx1()
	s := build(t, collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Chunks: 8})
	healthy, err := s.ExecuteCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var cp *collective.Checkpoint
	dead := topology.ChannelID(-1)
	for _, op := range s.Program().Ops {
		if op.Marker() {
			continue
		}
		res := g.Resources()
		res[op.Channel].FailAt(healthy.Total / 2)
		if _, next, err := s.ExecuteCheckpointCtx(ctx, res); err != nil && next != nil && next.NumExecuted > 0 {
			cp, dead = next, op.ChannelID()
			break
		}
	}
	if cp == nil {
		t.Fatal("no timed link death aborts the run mid-way")
	}
	g.KillChannel(dead)
	patched, rep, err := collective.RepairSchedule(s, g.DownChannels(), cp.Executed)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := patched.ResumeOnCtx(ctx, cp.Remap(rep.OldToNew, patched.NumTransfers()), g.Resources())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Total < cp.At {
		t.Fatalf("resumed run ends at %v, before its checkpoint at %v", res.Total, cp.At)
	}
	g.RestoreChannel(dead)
	healed, _, err := collective.RepairSchedule(patched, g.DownChannels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return healed
}

func sumAt(in [][]float64, j int) float64 {
	var s float64
	for n := range in {
		s += in[n][j]
	}
	return s
}

// primitiveCase builds a standalone primitive on fc:8 whose contract gives
// node n's element j (NaN = unconstrained).
func primitiveCase(prim collective.Primitive, contract func(in [][]float64, n, j int) float64) oracleCase {
	return oracleCase{
		name: "fc:8/" + prim.String(),
		build: func(t *testing.T) *collective.Schedule {
			s, err := collective.BuildPrimitive(collective.PrimitiveConfig{Graph: fc(8), Primitive: prim, Bytes: 1 << 20, Chunks: 8})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			return s
		},
		want: func(in [][]float64) [][]float64 {
			out := make([][]float64, len(in))
			for n := range out {
				out[n] = make([]float64, len(in[n]))
				for j := range out[n] {
					out[n][j] = contract(in, n, j)
				}
			}
			return out
		},
	}
}
