package des_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/schedcheck"
	"ccube/internal/synth"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// The differential tests hold the one run loop (Flat.RunCtx, behind
// Graph.RunCtx and the collective executors) to the engine it replaced,
// kept in reference_test.go: every task's Ready, Start and End, every
// FaultError and CanceledError field, the checkpoint of an aborted run and
// each resource's occupancy log.

// sameTasks requires got and want to hold the same tasks with the same
// outcome.
func sameTasks(t *testing.T, got, want *des.Graph) {
	t.Helper()
	if got.NumTasks() != want.NumTasks() {
		t.Fatalf("%d tasks, reference has %d", got.NumTasks(), want.NumTasks())
	}
	for i := 0; i < want.NumTasks(); i++ {
		if got.Ready(i) != want.Ready(i) || got.Start(i) != want.Start(i) || got.End(i) != want.End(i) ||
			des.Done(got, i) != des.Done(want, i) {
			t.Fatalf("task %d %q: ready/start/end/done %v/%v/%v/%v, reference %v/%v/%v/%v",
				i, want.Label(i), got.Ready(i), got.Start(i), got.End(i), des.Done(got, i),
				want.Ready(i), want.Start(i), want.End(i), des.Done(want, i))
		}
	}
}

// sameErr requires two run errors to match field for field.
func sameErr(t *testing.T, got, want error) {
	t.Helper()
	var gf, wf *des.FaultError
	var gc, wc *des.CanceledError
	switch {
	case want == nil:
		if got != nil {
			t.Fatalf("run failed: %v; reference ran clean", got)
		}
	case errors.As(want, &wf):
		if !errors.As(got, &gf) || !reflect.DeepEqual(*gf, *wf) {
			t.Fatalf("fault %#v, reference %#v", got, want)
		}
	case errors.As(want, &wc):
		if !errors.As(got, &gc) || gc.At != wc.At || gc.Executed != wc.Executed || gc.Remaining != wc.Remaining {
			t.Fatalf("cancellation %v, reference %v", got, want)
		}
	default:
		t.Fatalf("unexpected reference error %v", want)
	}
}

// sameOccupancy requires each resource to log the reference's intervals.
func sameOccupancy(t *testing.T, got, want []*des.Resource) {
	t.Helper()
	for c := range want {
		if !reflect.DeepEqual(got[c].Busy(), want[c].Busy()) || got[c].FreeAt() != want[c].FreeAt() {
			t.Fatalf("resource %s: occupancy %v (free %v), reference %v (free %v)",
				want[c].Name, got[c].Busy(), got[c].FreeAt(), want[c].Busy(), want[c].FreeAt())
		}
	}
}

// armFunc arms a run's fresh channel resources with a fault plan.
type armFunc func([]*des.Resource)

func resources(g *topology.Graph, arm armFunc) []*des.Resource {
	res := g.Resources()
	if arm != nil {
		arm(res)
	}
	return res
}

// referenceRun instantiates s into a task graph over fresh resources, the
// way the former executor did, and runs it on the reference engine.
func referenceRun(t *testing.T, ctx context.Context, s *collective.Schedule, arm armFunc) (*des.Graph, [][]int, []*des.Resource, des.Time, error) {
	t.Helper()
	res := resources(s.Graph, arm)
	g := des.NewGraph()
	ready, err := s.Instantiate(g, res, -1)
	if err != nil {
		t.Fatal(err)
	}
	total, err := des.RunReference(ctx, g)
	return g, ready, res, total, err
}

// checkSchedule runs s three ways — the reference engine, Graph.RunCtx on
// the same instantiated graph, and the collective executors straight from
// the ops — and requires them to agree. It reports whether the run
// faulted.
func checkSchedule(t *testing.T, s *collective.Schedule, arm armFunc) bool {
	ctx := context.Background()
	ref, ready, refRes, refTotal, refErr := referenceRun(t, ctx, s, arm)

	// Graph.RunCtx compiles the same graph into the run loop.
	viaGraph := des.NewGraph()
	graphRes := resources(s.Graph, arm)
	if _, err := s.Instantiate(viaGraph, graphRes, -1); err != nil {
		t.Fatal(err)
	}
	total, err := viaGraph.RunCtx(ctx)
	sameErr(t, err, refErr)
	if total != refTotal {
		t.Fatalf("Graph.RunCtx makespan %v, reference %v", total, refTotal)
	}
	sameTasks(t, viaGraph, ref)
	sameOccupancy(t, graphRes, refRes)

	if refErr != nil {
		// The aborted run's checkpoint: the executed prefix, its ends and
		// every channel's horizon.
		_, cp, err := s.ExecuteCheckpointCtx(ctx, resources(s.Graph, arm))
		sameErr(t, err, refErr)
		if cp == nil {
			t.Fatal("fault without a checkpoint")
		}
		if cp.At != refTotal {
			t.Fatalf("checkpoint at %v, reference %v", cp.At, refTotal)
		}
		// The reference graph is fresh: transfer i is task i.
		n := 0
		for i := range cp.Executed {
			if cp.Executed[i] != des.Done(ref, i) || (cp.Executed[i] && cp.End[i] != ref.End(i)) {
				t.Fatalf("checkpoint transfer %d: executed %v end %v, reference %v %v",
					i, cp.Executed[i], cp.End[i], des.Done(ref, i), ref.End(i))
			}
			if cp.Executed[i] {
				n++
			}
		}
		if cp.NumExecuted != n {
			t.Fatalf("checkpoint counts %d executed, reference %d", cp.NumExecuted, n)
		}
		for c, r := range refRes {
			if cp.FreeAt[c] != r.FreeAt() {
				t.Fatalf("checkpoint channel %d free at %v, reference %v", c, cp.FreeAt[c], r.FreeAt())
			}
		}
		return true
	}

	// ExecuteOnCtx: the exported graph, the result and the occupancy log.
	directRes := resources(s.Graph, arm)
	got, g, err := s.ExecuteOnCtx(ctx, directRes)
	if err != nil {
		t.Fatal(err)
	}
	sameTasks(t, g, ref)
	sameOccupancy(t, directRes, refRes)
	want := &collective.Result{Total: refTotal, Turnaround: 0, Partition: s.Partition, InOrder: s.InOrder,
		ChunkDone: make([]des.Time, s.Partition.NumChunks())}
	for i := range ready {
		row := make([]des.Time, len(ready[i]))
		for c, id := range ready[i] {
			row[c] = ref.End(id)
			want.ChunkDone[c] = max(want.ChunkDone[c], row[c])
		}
		want.ChunkReady = append(want.ChunkReady, row)
	}
	want.Turnaround = want.ChunkDone[0]
	for _, r := range refRes {
		want.ChannelBusy = append(want.ChannelBusy, r.BusyTime())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result %+v, reference %+v", got, want)
	}
	if arm == nil {
		fast, err := s.ExecuteCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("ExecuteCtx result %+v, reference %+v", fast, want)
		}
	}

	// A context cancelled before the run stops both engines at the first
	// checkpoint.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	ref2 := des.CloneUnrun(ref)
	_, refErr = des.RunReference(cctx, ref2)
	clone := des.CloneUnrun(ref)
	_, err = clone.RunCtx(cctx)
	sameErr(t, err, refErr)
	if _, err := s.ExecuteCtx(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExecuteCtx under a cancelled context: %v", err)
	}
	return false
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

// faultPlans are the armed runs each schedule is also checked under: a
// mid-run slowdown on a busy channel, a slowdown that ends, and the death,
// half-way through the run, of the channel the last transfer rides.
func faultPlans(t *testing.T, s *collective.Schedule) map[string]armFunc {
	healthy, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	chs := ridden(s)
	a, b := chs[0], chs[len(chs)/2]
	var last topology.ChannelID
	for _, op := range s.Program().Ops {
		if !op.Marker() {
			last = op.ChannelID()
		}
	}
	half := healthy.Total / 2
	return map[string]armFunc{
		"slowdown": func(res []*des.Resource) {
			res[a].SetSlowdownAt(healthy.Total/4, 3)
			res[b].SetSlowdownAt(0, 1.5)
		},
		"slowdown-recovers": func(res []*des.Resource) {
			res[b].SetSlowdownAt(healthy.Total/5, 2.25)
			res[b].SetSlowdownAt(half, 1)
		},
		"failat": func(res []*des.Resource) {
			res[last].FailAt(half)
			res[a].SetSlowdownAt(healthy.Total/3, 2)
		},
	}
}

func dgx1() *topology.Graph { return topology.DGX1(topology.DefaultDGX1Config()) }

func mustBuild(t *testing.T, cfg collective.Config) *collective.Schedule {
	t.Helper()
	if cfg.Bytes == 0 {
		cfg.Bytes = 1 << 20
	}
	s, err := collective.Build(cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg.Algorithm, err)
	}
	return s
}

func TestDifferentialSchedules(t *testing.T) {
	type scheduleCase struct {
		name  string
		build func(t *testing.T) *collective.Schedule
	}
	var cases []scheduleCase
	for _, topo := range []struct {
		name  string
		graph func() *topology.Graph
	}{
		{"dgx1", dgx1},
		{"fc:8", func() *topology.Graph { return topology.FullyConnected(8, 25e9, des.Microsecond) }},
		{"cluster:32", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(32)) }},
	} {
		for alg := collective.AlgRing; alg <= collective.AlgHalvingDoubling; alg++ {
			cases = append(cases, scheduleCase{topo.name + "/" + alg.String(), func(t *testing.T) *collective.Schedule {
				return mustBuild(t, collective.Config{Graph: topo.graph(), Algorithm: alg, Chunks: 8, AllowSharedChannels: true})
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
		cases = append(cases, scheduleCase{topo.name + "/synth", func(t *testing.T) *collective.Schedule {
			res, err := synth.Synthesize(context.Background(), topo.graph(), 1<<20, synth.Options{MaxChunks: 8, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			return res.Schedule
		}})
	}
	cases = append(cases,
		scheduleCase{"dgx1/repaired", func(t *testing.T) *collective.Schedule {
			s := mustBuild(t, collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Chunks: 8})
			s.Graph.KillChannel(ridden(s)[0])
			repaired, _, err := collective.RepairSchedule(s, s.Graph.DownChannels(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return repaired
		}},
		// A second final for a (node, chunk), after every other op: the last
		// final decides when the chunk is ready.
		scheduleCase{"dgx1/double-final", func(t *testing.T) *collective.Schedule {
			s := mustBuild(t, collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Chunks: 8})
			p := s.Program().Clone()
			sink := make([]bool, len(p.Ops))
			for i := range sink {
				sink[i] = true
			}
			deps := make([][]int, len(p.Ops), len(p.Ops)+1)
			for i := range p.Ops {
				for _, d := range p.Deps(i) {
					sink[d] = false
					deps[i] = append(deps[i], int(d))
				}
			}
			late := schedcheck.Op{Chunk: 0, Channel: -1, Src: schedcheck.NoBuf(), Dst: schedcheck.NoBuf(), Final: int32(s.Nodes[0])}
			var lateDeps []int
			for i, isSink := range sink {
				if isSink {
					lateDeps = append(lateDeps, i)
				}
			}
			// The late final breaks chunk order at that node: drop the claim.
			out, err := collective.Assemble(collective.AssembleSpec{Graph: s.Graph, Nodes: s.Nodes, Partition: s.Partition,
				Contract: s.Contract, Ops: append(p.Ops, late), Deps: append(deps, lateDeps)})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		scheduleCase{"hierarchical/4-boxes", func(t *testing.T) *collective.Schedule {
			mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(4))
			if err != nil {
				t.Fatal(err)
			}
			s, err := collective.BuildHierarchical(collective.HierarchicalConfig{Cluster: mn, Bytes: 4 << 20, Chunks: 8, Chained: true})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.build(t)
			t.Run("healthy", func(t *testing.T) { checkSchedule(t, s, nil) })
			for name, arm := range faultPlans(t, s) {
				t.Run(name, func(t *testing.T) {
					if faulted := checkSchedule(t, s, arm); faulted != (name == "failat") {
						t.Fatalf("faulted = %v under %s", faulted, name)
					}
				})
			}
		})
	}
}

// referenceResume is the former ResumeOnCtx: only unexecuted transfers
// become tasks, a dependency on an executed one becomes an earliest bound,
// and a "resume/carryover" pseudo-task occupies each channel the remaining
// transfers ride until its checkpointed FreeAt. It returns the graph, the
// task id of each transfer (−1 when executed) and the carry-over count.
func referenceResume(s *collective.Schedule, cp *collective.Checkpoint, res []*des.Resource) (*des.Graph, []int, int) {
	p := s.Program()
	used := make([]bool, len(res))
	for i, op := range p.Ops {
		if !cp.Executed[i] && !op.Marker() {
			used[op.Channel] = true
		}
	}
	g := des.NewGraph()
	carry := 0
	for c := range res {
		if used[c] && cp.FreeAt[c] > 0 {
			g.Add("resume/carryover", res[c], cp.FreeAt[c])
			carry++
		}
	}
	ids := make([]int, len(p.Ops))
	for i, op := range p.Ops {
		ids[i] = -1
		if cp.Executed[i] {
			continue
		}
		var r *des.Resource
		var d des.Time
		if !op.Marker() {
			ch := s.Graph.Channel(op.ChannelID())
			r = res[op.Channel]
			d = ch.TransferTime(op.Bytes)
			if op.NoAlpha {
				d -= ch.Latency
			}
		}
		var deps []int
		var earliest des.Time
		for _, dep := range p.Deps(i) {
			if cp.Executed[dep] {
				earliest = max(earliest, cp.End[dep])
			} else {
				deps = append(deps, ids[dep])
			}
		}
		ids[i] = g.Add(op.Kind(), r, d, deps...)
		if earliest > 0 {
			g.SetEarliest(ids[i], earliest)
		}
	}
	return g, ids, carry
}

// TestDifferentialResume checkpoints C-Cube on a mid-run link death,
// patches the remainder around the dead link, and resumes it — cleanly, and
// under a second death — comparing ResumeOnCtx with the former
// carry-over-task resume on the reference engine.
func TestDifferentialResume(t *testing.T) {
	ctx := context.Background()
	for _, alg := range []collective.Algorithm{collective.AlgDoubleTreeOverlap, collective.AlgRing} {
		t.Run(alg.String(), func(t *testing.T) {
			g := dgx1()
			s := mustBuild(t, collective.Config{Graph: g, Algorithm: alg, Chunks: 8})
			healthy, err := s.ExecuteCtx(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var cp *collective.Checkpoint
			dead := topology.ChannelID(-1)
			for _, ch := range ridden(s) {
				res := g.Resources()
				res[ch].FailAt(healthy.Total / 2)
				if _, next, err := s.ExecuteCheckpointCtx(ctx, res); err != nil && next != nil && next.NumExecuted > 0 {
					cp, dead = next, ch
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
			rcp := cp.Remap(rep.OldToNew, patched.NumTransfers())
			var second topology.ChannelID
			for _, op := range patched.Program().Ops {
				if !op.Marker() {
					second = op.ChannelID()
				}
			}
			for name, arm := range map[string]armFunc{
				"clean": nil,
				"second-death": func(res []*des.Resource) {
					res[second].FailAt(cp.At + (healthy.Total-cp.At)/4)
				},
			} {
				t.Run(name, func(t *testing.T) {
					refRes := resources(g, arm)
					ref, ids, carry := referenceResume(patched, rcp, refRes)
					refTotal, refErr := des.RunReference(ctx, ref)
					got, next, err := patched.ResumeOnCtx(ctx, rcp, resources(g, arm))
					n := patched.NumTransfers()
					end := func(i int) des.Time {
						if rcp.Executed[i] {
							return rcp.End[i]
						}
						return ref.End(ids[i])
					}
					var wf *des.FaultError
					if faulted := errors.As(refErr, &wf); faulted != (arm != nil) {
						t.Fatalf("reference faulted = %v (%v)", faulted, refErr)
					}
					if wf != nil {
						var gf *des.FaultError
						if !errors.As(err, &gf) {
							t.Fatalf("resume error %v, reference %v", err, refErr)
						}
						wantFault := wf.Faults[0]
						gotFault := gf.Faults[0]
						if ids[gotFault.TaskID] != wantFault.TaskID || gotFault.Label != wantFault.Label ||
							gotFault.Resource != wantFault.Resource || gotFault.At != wantFault.At ||
							gotFault.FailedAt != wantFault.FailedAt ||
							gf.Executed != wf.Executed-carry || gf.Total != wf.Total-carry {
							t.Fatalf("fault %+v (%d of %d), reference %+v (%d of %d, %d carry-overs)",
								gotFault, gf.Executed, gf.Total, wantFault, wf.Executed, wf.Total, carry)
						}
						if next.At != max(refTotal, rcp.At) {
							t.Fatalf("merged checkpoint at %v, reference %v", next.At, max(refTotal, rcp.At))
						}
						for i := 0; i < n; i++ {
							done := rcp.Executed[i] || des.Done(ref, ids[i])
							if next.Executed[i] != done || (done && next.End[i] != end(i)) {
								t.Fatalf("merged transfer %d: executed %v end %v, reference %v %v",
									i, next.Executed[i], next.End[i], done, end(i))
							}
						}
						for c, r := range refRes {
							if want := max(r.FreeAt(), rcp.FreeAt[c]); next.FreeAt[c] != want {
								t.Fatalf("merged channel %d free at %v, reference %v", c, next.FreeAt[c], want)
							}
						}
						return
					}
					if refErr != nil || err != nil {
						t.Fatalf("resume error %v, reference %v", err, refErr)
					}
					total := max(refTotal, rcp.At)
					for i := 0; i < n; i++ {
						total = max(total, end(i))
					}
					if got.Total != total {
						t.Fatalf("resumed total %v, reference %v", got.Total, total)
					}
					for ni, node := range patched.Nodes {
						for c := range got.ChunkReady[ni] {
							var want des.Time
							for i, op := range patched.Program().Ops {
								if op.FinalNode() == node && int(op.Chunk) == c {
									want = end(i)
								}
							}
							if got.ChunkReady[ni][c] != want {
								t.Fatalf("chunk %d ready at node %d at %v, reference %v", c, node, got.ChunkReady[ni][c], want)
							}
						}
					}
				})
			}
		})
	}
}

// TestDifferentialTraining reruns the executed iteration graph of every
// training mode on the reference engine.
func TestDifferentialTraining(t *testing.T) {
	ctx := context.Background()
	modes := append(train.Modes(), train.ModeDDP)
	for _, m := range modes {
		t.Run(string(m), func(t *testing.T) {
			cfg := train.Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: m}
			run := train.RunCtx
			if m == train.ModeDDP {
				run = train.RunBackwardOverlapCtx
			}
			res, err := run(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := des.CloneUnrun(res.Graph)
			if _, err := des.RunReference(ctx, ref); err != nil {
				t.Fatal(err)
			}
			sameTasks(t, res.Graph, ref)
		})
	}
}

// randomArmedGraph builds a random DAG built to tie: durations from a small
// set that includes zero (markers and joins), few resources, shared
// earliest bounds, and sometimes a slowdown plan and a failure.
func randomArmedGraph(rng *rand.Rand) (*des.Graph, []*des.Resource) {
	g := des.NewGraph()
	res := make([]*des.Resource, rng.Intn(4)+1)
	for i := range res {
		res[i] = des.NewResource(fmt.Sprintf("r%d", i))
		switch rng.Intn(4) {
		case 0:
			res[i].SetSlowdownAt(des.Time(rng.Intn(50)), 1+float64(rng.Intn(3))/2)
			res[i].SetSlowdownAt(des.Time(50+rng.Intn(50)), 1)
		case 1:
			res[i].FailAt(des.Time(rng.Intn(300)))
		}
	}
	n := rng.Intn(150) + 1
	for i := 0; i < n; i++ {
		var r *des.Resource
		if rng.Intn(3) != 0 {
			r = res[rng.Intn(len(res))]
		}
		var deps []int
		for j := rng.Intn(4); i > 0 && j > 0; j-- {
			deps = append(deps, rng.Intn(i))
		}
		id := g.Add("t", r, des.Time(5*rng.Intn(3)), deps...)
		if rng.Intn(8) == 0 {
			g.SetEarliest(id, des.Time(10*rng.Intn(4)))
		}
	}
	return g, res
}

// TestRunLoopMatchesReferenceOnRandomDAGs pins the tie-break: with many
// equal ready times, zero-duration tasks and shared resources, the radix
// queue must grant in exactly the reference heap's (ready time, id) order.
func TestRunLoopMatchesReferenceOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	faulted := 0
	const iters = 500
	for iter := 0; iter < iters; iter++ {
		g, _ := randomArmedGraph(rng)
		ref := des.CloneUnrun(g)
		refTotal, refErr := des.RunReference(ctx, ref)
		total, err := g.RunCtx(ctx)
		if total != refTotal {
			t.Fatalf("iter %d: makespan %v, reference %v", iter, total, refTotal)
		}
		sameErr(t, err, refErr)
		sameTasks(t, g, ref)
		if refErr != nil {
			faulted++
		}
	}
	if faulted == 0 || faulted == iters {
		t.Fatalf("%d of %d random runs faulted; the grid must cover both outcomes", faulted, iters)
	}
}
