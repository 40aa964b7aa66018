package gpusim

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/collective/store"
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

// TestDifferentialOracle runs every schedule kind through both data
// executors — ExecuteData's sequential walk and the concurrent interpreter —
// on integer-valued inputs, whose sums are exact in any order. Both must
// produce the same buffers, and those buffers must meet the schedule's data
// contract.
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
			repaired, _, err := collective.RepairSchedule(s)
			if err != nil {
				t.Fatal(err)
			}
			return repaired
		}},
		oracleCase{name: "dgx1/patched", build: func(t *testing.T) *collective.Schedule {
			g := dgx1()
			s := build(t, collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Chunks: 8})
			dead := killRidden(t, s.Program(), func(_ int, ch *topology.Channel) bool {
				return len(g.ChannelsBetween(ch.From, ch.To)) > 1 // rebalance onto the parallel link
			})
			patched, _, err := collective.RepairScheduleIncremental(s, []topology.ChannelID{dead}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return patched
		}},
		oracleCase{name: "hierarchical/2-boxes", build: func(t *testing.T) *collective.Schedule {
			return hierSchedule(t, 2, 8, true)
		}},
		oracleCase{name: "dgx1/store-loaded", build: storeLoaded},
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

// storeLoaded round-trips the C-Cube schedule through the on-disk store: one
// cache builds and writes it, a second cache with a fresh graph loads it.
func storeLoaded(t *testing.T) *collective.Schedule {
	dir := t.TempDir()
	cfg := func() collective.Config {
		return collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	}
	for i := 0; i < 2; i++ {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		c := collective.NewCache()
		c.SetStore(st)
		s, err := c.Build(cfg())
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if hits := st.Stats().Hits; hits != 1 {
				t.Fatalf("store hits = %d, want the schedule loaded from disk", hits)
			}
			return s
		}
	}
	return nil
}
