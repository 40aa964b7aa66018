package fault_test

import (
	"context"
	"errors"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/fault"
	"ccube/internal/topology"
)

func dgx1() *topology.Graph { return topology.DGX1(topology.DefaultDGX1Config()) }

func TestPlanApplyAndRevert(t *testing.T) {
	g := dgx1()
	// ch3 (1->0) and ch0 (0->1) do not touch GPU 2, so the GPUSlow event
	// cannot compound with them.
	p := fault.NewPlan(
		fault.Event{Kind: fault.LinkDown, Channel: 3},
		fault.Event{Kind: fault.LinkDegrade, Channel: 0, Factor: 4},
		fault.Event{Kind: fault.GPUSlow, GPU: 2, Factor: 2},
	)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	revert := p.Apply(g)
	if !g.Channel(3).Down() {
		t.Fatal("channel 3 not killed")
	}
	if g.Channel(0).DegradeFactor() != 4 {
		t.Fatalf("channel 0 degrade = %v", g.Channel(0).DegradeFactor())
	}
	for _, cid := range g.Out(topology.NodeID(2)) {
		if !g.Channel(cid).Down() && g.Channel(cid).DegradeFactor() < 2 {
			t.Fatalf("GPU2 out-channel %d not degraded", cid)
		}
	}
	revert()
	if g.Channel(3).Down() || g.Channel(0).DegradeFactor() != 1 {
		t.Fatal("revert did not restore health")
	}
	for _, cid := range g.Out(topology.NodeID(2)) {
		if g.Channel(cid).DegradeFactor() != 1 {
			t.Fatalf("GPU2 out-channel %d still degraded after revert", cid)
		}
	}
}

func TestRandomLinkFailuresDeterministic(t *testing.T) {
	g := dgx1()
	a := fault.RandomLinkFailures(g, 42, 3)
	b := fault.RandomLinkFailures(g, 42, 3)
	// A physical link is bidirectional: 3 failed links down 6 directed
	// channels.
	if len(a.Events) != 6 || len(b.Events) != 6 {
		t.Fatalf("events = %d/%d, want 6", len(a.Events), len(b.Events))
	}
	for _, e := range a.Events {
		c := g.Channel(e.Channel)
		found := false
		for _, other := range a.Events {
			o := g.Channel(other.Channel)
			if o.From == c.To && o.To == c.From && o.Tag == c.Tag {
				found = true
			}
		}
		if !found {
			t.Fatalf("channel %d killed without its reverse direction", e.Channel)
		}
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("plans diverge at %d: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	c := fault.RandomLinkFailures(g, 43, 3)
	same := true
	for i := range a.Events {
		if a.Events[i] != c.Events[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the same plan")
	}
}

func TestParseSpec(t *testing.T) {
	g := dgx1()
	p, err := fault.ParseSpec(g, "kill:2-3, degrade:0-1x4, slow:0x1.5, kill:ch7@50000")
	if err != nil {
		t.Fatal(err)
	}
	// GPU2->GPU3 and GPU0->GPU1 each have two parallel channels: the node-pair
	// syntax targets both.
	kills, degrades, slows, timed := 0, 0, 0, 0
	for _, e := range p.Events {
		switch {
		case e.Kind == fault.LinkDown && e.At == 0:
			kills++
		case e.Kind == fault.LinkDown && e.At == 50000:
			timed++
		case e.Kind == fault.LinkDegrade:
			degrades++
			if e.Factor != 4 {
				t.Fatalf("degrade factor = %v", e.Factor)
			}
		case e.Kind == fault.GPUSlow:
			slows++
			if e.GPU != 0 || e.Factor != 1.5 {
				t.Fatalf("slow event = %+v", e)
			}
		}
	}
	if kills != 2 || degrades != 2 || slows != 1 || timed != 1 {
		t.Fatalf("kills=%d degrades=%d slows=%d timed=%d", kills, degrades, slows, timed)
	}

	for _, bad := range []string{"kill", "kill:99-100", "degrade:0-1", "degrade:0-1x0.5", "slow:0", "boom:1", "kill:ch7@-5"} {
		if _, err := fault.ParseSpec(g, bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// usedChannel returns a channel id the built schedule actually rides, so a
// kill provably strands traffic.
func usedChannel(t *testing.T, cfg collective.Config) topology.ChannelID {
	t.Helper()
	s, err := collective.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Program()
	for i := range p.Ops {
		if !p.Ops[i].Marker() {
			return p.Ops[i].ChannelID()
		}
	}
	t.Fatal("schedule has no transfers")
	return -1
}

var matrixAlgorithms = []collective.Algorithm{
	collective.AlgRing,
	collective.AlgHalvingDoubling,
	collective.AlgTree,
	collective.AlgTreeOverlap,
	collective.AlgDoubleTree,
	collective.AlgDoubleTreeOverlap,
}

// The fault matrix: every algorithm x {dead link, degraded link, slow GPU} x
// {repairable, unrepairable}. Repairable faults must complete (with a repair
// when the fault was fatal); unrepairable ones must return a structured
// error. Nothing may hang — the test itself is the deadline.
func TestFaultMatrix(t *testing.T) {
	for _, alg := range matrixAlgorithms {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			cfg := func() collective.Config {
				return collective.Config{Graph: dgx1(), Algorithm: alg, Bytes: 1 << 18, Chunks: 8}
			}

			// Healthy baseline for slowdown comparisons.
			c0 := cfg()
			baseline, _, err := fault.RunCollectiveCtx(context.Background(), c0, nil)
			if err != nil {
				t.Fatal(err)
			}

			t.Run("dead-link-repairable", func(t *testing.T) {
				c := cfg()
				dead := usedChannel(t, c)
				plan := fault.NewPlan(fault.Event{Kind: fault.LinkDown, Channel: dead})
				res, rep, err := fault.RunCollectiveCtx(context.Background(), c, plan)
				if err != nil {
					t.Fatal(err)
				}
				if res.Total <= 0 || rep.Rerouted() == 0 {
					t.Fatalf("total=%v rerouted=%d, want a repaired run", res.Total, rep.Rerouted())
				}
				if c.Graph.Channel(dead).Down() {
					t.Fatal("graph health not restored after RunCollectiveCtx")
				}
			})

			t.Run("dead-link-unrepairable", func(t *testing.T) {
				c := cfg()
				// Cut GPU0 off entirely: no repair can route around a node
				// with no outgoing links.
				plan := &fault.Plan{}
				for _, cid := range c.Graph.Out(topology.NodeID(0)) {
					plan.Events = append(plan.Events, fault.Event{Kind: fault.LinkDown, Channel: cid})
				}
				_, _, err := fault.RunCollectiveCtx(context.Background(), c, plan)
				var ue *collective.UnrepairableError
				if !errors.As(err, &ue) {
					t.Fatalf("err = %v, want *UnrepairableError", err)
				}
			})

			t.Run("degraded-link", func(t *testing.T) {
				c := cfg()
				plan := fault.NewPlan(fault.Event{Kind: fault.LinkDegrade, Channel: usedChannel(t, c), Factor: 8})
				res, _, err := fault.RunCollectiveCtx(context.Background(), c, plan)
				if err != nil {
					t.Fatal(err)
				}
				if res.Total < baseline.Total {
					t.Fatalf("degraded total %v < healthy %v", res.Total, baseline.Total)
				}
			})

			t.Run("degraded-link-extreme", func(t *testing.T) {
				// A 1000x-degraded link is still alive: the run completes
				// without repair, only slower. No structured error expected.
				c := cfg()
				plan := fault.NewPlan(fault.Event{Kind: fault.LinkDegrade, Channel: usedChannel(t, c), Factor: 1000})
				res, _, err := fault.RunCollectiveCtx(context.Background(), c, plan)
				if err != nil {
					t.Fatal(err)
				}
				if res.Total <= baseline.Total {
					t.Fatalf("extreme degradation total %v <= healthy %v", res.Total, baseline.Total)
				}
			})

			t.Run("slow-gpu", func(t *testing.T) {
				c := cfg()
				plan := fault.NewPlan(fault.Event{Kind: fault.GPUSlow, GPU: 0, Factor: 2})
				res, _, err := fault.RunCollectiveCtx(context.Background(), c, plan)
				if err != nil {
					t.Fatal(err)
				}
				if res.Total < baseline.Total {
					t.Fatalf("slow-GPU total %v < healthy %v", res.Total, baseline.Total)
				}
			})
		})
	}
}

// A timed link death mid-run: the first attempt aborts with a structured
// fault, the channel is promoted to dead, the schedule repairs, and the
// relaunch completes.
func TestRunCollectiveMidRunDeathRecovers(t *testing.T) {
	cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	baseline, _, err := fault.RunCollectiveCtx(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := usedChannel(t, cfg)
	plan := fault.NewPlan(fault.Event{Kind: fault.LinkDown, Channel: dead, At: baseline.Total / 4})
	res, rep, err := fault.RunCollectiveCtx(context.Background(), cfg, plan)
	if err != nil {
		t.Fatalf("RunCollectiveCtx under mid-run death: %v", err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (abort + relaunch)", rep.Attempts)
	}
	if len(rep.MidRunDeaths) != 1 || rep.MidRunDeaths[0] != dead {
		t.Fatalf("mid-run deaths = %v, want [%d]", rep.MidRunDeaths, dead)
	}
	if rep.Rerouted() == 0 {
		t.Fatal("relaunch did not reroute anything")
	}
	if res.Total <= 0 {
		t.Fatal("non-positive total")
	}
	if cfg.Graph.Channel(dead).Down() {
		t.Fatal("promoted channel not restored")
	}
}

// A timed death on a channel the schedule never uses: one attempt, no
// repairs, same makespan as healthy.
func TestRunCollectiveIrrelevantTimedDeath(t *testing.T) {
	cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	baseline, _, err := fault.RunCollectiveCtx(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := collective.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[topology.ChannelID]bool)
	p := s.Program()
	for i := range p.Ops {
		if !p.Ops[i].Marker() {
			used[p.Ops[i].ChannelID()] = true
		}
	}
	unused := topology.ChannelID(-1)
	for c := 0; c < cfg.Graph.NumChannels(); c++ {
		if !used[topology.ChannelID(c)] {
			unused = topology.ChannelID(c)
			break
		}
	}
	if unused < 0 {
		t.Skip("schedule uses every channel")
	}
	plan := fault.NewPlan(fault.Event{Kind: fault.LinkDown, Channel: unused, At: des.Time(1)})
	res, rep, err := fault.RunCollectiveCtx(context.Background(), cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 || len(rep.MidRunDeaths) != 0 {
		t.Fatalf("report = %+v, want untouched single attempt", rep)
	}
	if res.Total != baseline.Total {
		t.Fatalf("total %v != healthy %v", res.Total, baseline.Total)
	}
}

// Determinism: the same plan twice yields identical totals and reports.
func TestRunCollectiveDeterministic(t *testing.T) {
	run := func() (des.Time, int) {
		cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
		plan := fault.RandomLinkFailures(cfg.Graph, 99, 2)
		res, rep, err := fault.RunCollectiveCtx(context.Background(), cfg, plan)
		if err != nil {
			// Unrepairable is a legal outcome for a random 2-link kill; it
			// must at least be deterministic.
			return -1, rep.Attempts
		}
		return res.Total, rep.Attempts
	}
	t1, a1 := run()
	t2, a2 := run()
	if t1 != t2 || a1 != a2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, a1, t2, a2)
	}
}
