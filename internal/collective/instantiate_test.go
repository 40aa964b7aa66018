package collective

import (
	"context"
	"errors"
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
	ready, err := s.Instantiate(g, s.Graph.Resources(), -1)
	if err != nil {
		return nil, nil, 0, err
	}
	total, err := g.RunCtx(context.Background())
	return g, ready, total, err
}

// TestInstantiateMatchesExecute pins Instantiate's block append to the
// executor: a schedule instantiated alone into a graph times every transfer
// exactly as ExecuteCtx and ExecuteOnCtx do, and both refuse a dead channel and a stale
// schedule with the same error.
func TestInstantiateMatchesExecute(t *testing.T) {
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
			if fast, err := s.ExecuteCtx(ctx); err != nil || !reflect.DeepEqual(fast, want) {
				t.Fatalf("ExecuteCtx %+v (%v), ExecuteOnCtx %+v", fast, err, want)
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
