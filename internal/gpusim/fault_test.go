package gpusim

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// ridden returns the first channel the program rides that satisfies pick.
func ridden(t *testing.T, p *schedcheck.Program, pick func(i int, ch *topology.Channel) bool) topology.ChannelID {
	t.Helper()
	for i := range p.Ops {
		if op := &p.Ops[i]; !op.Marker() && pick(i, p.Graph.Channel(op.Channel)) {
			return op.Channel
		}
	}
	t.Fatal("no ridden channel matches")
	return -1
}

// killRidden kills ridden's channel and returns it.
func killRidden(t *testing.T, p *schedcheck.Program, pick func(i int, ch *topology.Channel) bool) topology.ChannelID {
	t.Helper()
	cid := ridden(t, p, pick)
	p.Graph.KillChannel(cid)
	return cid
}

func anyChannel(int, *topology.Channel) bool { return true }

// The acceptance scenario on the functional emulator: a direct link the
// C-Cube schedule rides dies, the repair splices a forwarding hop through an
// intermediate GPU (§IV-A), and the repaired schedule still computes an
// exact AllReduce.
func TestDeadEdgeRecoversViaDetour(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, overlap := range []bool{false, true} {
		g := dgx1()
		s := build(t, collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Chunks: 8})
		if !overlap {
			s = build(t, collective.Config{Graph: g, Algorithm: collective.AlgDoubleTree, Chunks: 8})
		}
		killRidden(t, s.Program(), func(_ int, ch *topology.Channel) bool {
			return len(g.ChannelsBetween(ch.From, ch.To)) == 1 // no parallel link left
		})
		repaired, rep, err := collective.RepairSchedule(s, g.DownChannels(), nil)
		if err != nil {
			t.Fatalf("overlap=%v: %v", overlap, err)
		}
		if rep.AddedHops == 0 {
			t.Fatalf("overlap=%v: repair added no forwarding hop: %v", overlap, rep.Routes)
		}
		inputs, want := randInputs(rng, 8, 1000)
		runSum(t, repaired.Program(), inputs, want)
	}
}

// An unrepaired schedule over a down channel must fail loudly with a
// *StallError naming the starved kernels — never deadlock. The test
// completing at all is the no-deadlock proof.
func TestDeadEdgeWithoutDetourFailsLoudly(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, overlap := range []bool{false, true} {
		inputs, _ := randInputs(rng, 8, 1000)
		p := dgx1Program(t, dgx1(), 8, overlap)
		killRidden(t, p, anyChannel)
		_, err := Run(p, inputs, Config{})
		var se *StallError
		if !errors.As(err, &se) {
			t.Fatalf("overlap=%v: err = %v, want *StallError", overlap, err)
		}
		if len(se.Kernels) == 0 || !strings.Contains(se.Error(), "stalled") {
			t.Fatalf("overlap=%v: uninformative stall error: %v", overlap, se)
		}
	}
}

// Gradient-queuing consumers must also unwind on a stall: the chunks for
// later layers never arrive, and the compute kernels report it instead of
// spinning forever.
func TestDeadEdgeStallsGradientQueueLoudly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	inputs, _ := randInputs(rng, 8, 1000)
	p := dgx1Program(t, dgx1(), 8, true)
	killRidden(t, p, anyChannel)
	_, err := Run(p, inputs, Config{LayerElems: []int{300, 400, 300}})
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if !strings.Contains(se.Error(), "compute kernel") {
		t.Fatalf("no compute kernel reported the stall: %v", se)
	}
}

// The spin budget a run over a down channel imposes is harmless on a
// healthy program: same exact result, every layer dequeued.
func TestSpinBudgetHealthyRunUnaffected(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	inputs, want := randInputs(rng, 8, 1000)
	res, err := run(dgx1Program(t, dgx1(), 8, true), inputs, Config{LayerElems: []int{250, 250, 250, 250}}, true)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, res, want)
	for g, order := range res.DequeueOrder {
		if len(order) != 4 {
			t.Fatalf("GPU %d dequeued %d layers, want 4", g, len(order))
		}
	}
}

// Killing a link that a relay hop rides and patching the live schedule
// around it must not perturb results across chunk counts: the patched
// schedule computes the same sums as the healthy one.
func TestDeadDetouredEdgeMatchesHealthy(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, chunks := range []int{2, 7, 16} {
		inputs, want := randInputs(rng, 8, 500)
		g := dgx1()
		s := build(t, collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Chunks: chunks})
		runSum(t, s.Program(), inputs, want)
		p := s.Program()
		dead := killRidden(t, p, func(i int, _ *topology.Channel) bool { return p.Ops[i].Dst.IsRelay() })
		patched, _, err := collective.RepairSchedule(s, []topology.ChannelID{dead}, nil)
		if err != nil {
			t.Fatalf("chunks=%d: %v", chunks, err)
		}
		runSum(t, patched.Program(), inputs, want)
	}
}
