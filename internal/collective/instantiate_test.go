package collective

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// parityCases are the schedules TestInstantiateMatchesExecute runs both
// ways: every built-in algorithm on the DGX-1, and a chained hierarchical
// schedule over four boxes.
func parityCases(t *testing.T) map[string]func() *Schedule {
	cases := map[string]func() *Schedule{}
	for alg := AlgRing; alg <= AlgHalvingDoubling; alg++ {
		cases["dgx1/"+alg.String()] = func() *Schedule {
			s, err := Build(Config{Graph: topology.DGX1(topology.DefaultDGX1Config()), Algorithm: alg,
				Bytes: 16 << 20, AllowSharedChannels: true})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	cases["hierarchical/4-boxes"] = func() *Schedule {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildHierarchical(HierarchicalConfig{Cluster: mn, Bytes: 16 << 20, Chained: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return cases
}

// instantiateAlone instantiates s into an otherwise empty graph with no
// start dependency and runs it.
func instantiateAlone(s *Schedule) (*des.Graph, [][]int, des.Time, error) {
	g := des.NewGraph()
	block, err := s.Instantiate(g, s.Graph.Resources(), -1)
	if err != nil {
		return nil, nil, 0, err
	}
	g.SetNamer(block) // the block is the whole graph
	total, err := g.RunCtx(context.Background())
	return g, block.Ready, total, err
}

// blockStart is when instantiateBehind's start task ends: the time the
// block is shifted by.
const blockStart = 3*des.Millisecond + 17

// instantiateBehind instantiates s behind a start task ending at
// blockStart, in a graph whose unrelated "other" resource stays busy
// before, across and after the block's window, runs it and returns the
// block's Result.
func instantiateBehind(t *testing.T, s *Schedule) *Result {
	t.Helper()
	g := des.NewGraph()
	other := des.NewResource("other")
	prev := g.Add(other, blockStart/2)
	start := g.Add(nil, blockStart)
	block, err := s.Instantiate(g, s.Graph.Resources(), start)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		prev = g.Add(other, des.Millisecond, prev)
	}
	if _, err := g.RunCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if g.End(start) != blockStart {
		t.Fatalf("start task ends at %v, want %v", g.End(start), blockStart)
	}
	return block.Result(g)
}

// TestInstantiateMatchesExecute pins Instantiate's block append to the
// executor: a schedule instantiated alone into a graph times every transfer
// exactly as ExecuteCtx and ExecuteOnCtx do, and both refuse a dead channel
// and a stale schedule with the same error. Instantiated behind a start
// task that ends at a non-zero time, beside unrelated work, the block's
// Result is ExecuteCtx's field for field, and it publishes the same
// overlap efficiency, bit for bit, as one more execution.
func TestInstantiateMatchesExecute(t *testing.T) {
	withMetrics(t)
	ctx := context.Background()
	for name, build := range parityCases(t) {
		t.Run(name, func(t *testing.T) {
			s := build()
			g, ready, total, err := instantiateAlone(s)
			if err != nil {
				t.Fatal(err)
			}
			want, exported, err := s.ExecuteOnCtx(ctx, s.Graph.Resources())
			if err != nil {
				t.Fatal(err)
			}
			fast, err := s.ExecuteCtx(ctx)
			if err != nil || !reflect.DeepEqual(fast, want) {
				t.Fatalf("ExecuteCtx %+v (%v), ExecuteOnCtx %+v", fast, err, want)
			}
			standaloneOverlap := mOverlapEfficiency.Value()
			executions := mExecutions.Value()
			if got := instantiateBehind(t, s); !reflect.DeepEqual(got, fast) {
				t.Fatalf("block result %+v, ExecuteCtx %+v", got, fast)
			}
			if got := mOverlapEfficiency.Value(); math.Float64bits(got) != math.Float64bits(standaloneOverlap) {
				t.Fatalf("block overlap efficiency %v, standalone %v", got, standaloneOverlap)
			}
			if got := mExecutions.Value(); got != executions+1 {
				t.Fatalf("block result counted %v executions, want 1", got-executions)
			}
			if total != want.Total {
				t.Fatalf("instantiated total %v, ExecuteCtx %v", total, want.Total)
			}
			if g.NumTasks() != s.NumTransfers() || exported.NumTasks() != s.NumTransfers() {
				t.Fatalf("%d and %d tasks for %d transfers", g.NumTasks(), exported.NumTasks(), s.NumTransfers())
			}
			for i := 0; i < s.NumTransfers(); i++ {
				if g.Start(i) != exported.Start(i) || g.End(i) != exported.End(i) || g.Ready(i) != exported.Ready(i) {
					t.Fatalf("transfer %d (%s): instantiated ready/start/end %v/%v/%v, executed %v/%v/%v", i, s.Label(i),
						g.Ready(i), g.Start(i), g.End(i), exported.Ready(i), exported.Start(i), exported.End(i))
				}
				if g.Label(i) != exported.Label(i) {
					t.Fatalf("transfer %d: instantiated as %q, executed as %q", i, g.Label(i), exported.Label(i))
				}
			}
			for ni, row := range ready {
				for c, id := range row {
					if g.End(id) != want.ChunkReady[ni][c] {
						t.Fatalf("chunk %d at node %d ready at %v, ExecuteOnCtx %v", c, ni, g.End(id), want.ChunkReady[ni][c])
					}
				}
			}

			// A killed channel under a schedule stamped for the killed
			// fabric: both paths name the first transfer riding it.
			dead := build()
			for _, op := range dead.ops {
				if !op.Marker() {
					dead.Graph.KillChannel(op.ChannelID())
					break
				}
			}
			dead.stamp()
			sameRunError[*DeadChannelError](t, dead)

			// A topology mutated after the stamp: both paths refuse it as
			// stale.
			stale := build()
			stale.stamp()
			stale.Graph.DegradeChannel(0, 2)
			sameRunError[*StaleScheduleError](t, stale)
		})
	}
}

// sameRunError requires Instantiate and ExecuteOnCtx to refuse s with equal
// errors of type E.
func sameRunError[E error](t *testing.T, s *Schedule) {
	t.Helper()
	_, _, _, instErr := instantiateAlone(s)
	_, _, execErr := s.ExecuteOnCtx(context.Background(), s.Graph.Resources())
	var a, b E
	if !errors.As(instErr, &a) || !errors.As(execErr, &b) {
		t.Fatalf("Instantiate: %v; ExecuteOnCtx: %v; want %T from both", instErr, execErr, a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Instantiate: %#v; ExecuteOnCtx: %#v", a, b)
	}
}
