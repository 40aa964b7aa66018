package collective

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"ccube/internal/topology"
)

// usedChannels returns the distinct channels a schedule rides, id order.
func usedChannels(s *Schedule) []topology.ChannelID {
	seen := make(map[topology.ChannelID]bool)
	var out []topology.ChannelID
	for _, t := range s.transfers {
		if t.isMarker() || seen[t.channel] {
			continue
		}
		seen[t.channel] = true
		out = append(out, t.channel)
	}
	return out
}

// The acceptance scenario: a DGX-1 C-Cube double-tree run with one injected
// dead logical-tree link completes via an automatically repaired route, and
// the repaired schedule passes full static verification.
func TestRepairScheduleDGX1DoubleTreeDeadLink(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, alg := range []Algorithm{AlgDoubleTreeOverlap, AlgDoubleTree, AlgTreeOverlap, AlgRing, AlgHalvingDoubling} {
		t.Run(alg.String(), func(t *testing.T) {
			g := dgx1()
			s, err := Build(Config{Graph: g, Algorithm: alg, Bytes: 1 << 20, Chunks: 8})
			if err != nil {
				t.Fatal(err)
			}
			used := usedChannels(s)
			dead := used[len(used)/2]
			g.KillChannel(dead)

			// The unrepaired schedule must now fail verification and refuse
			// instantiation with a structured error.
			if err := s.Verify(); err == nil {
				t.Fatal("schedule over a dead channel verified clean")
			}
			if _, err := s.ExecuteCtx(context.Background()); err == nil {
				t.Fatal("Execute over a dead channel succeeded")
			} else {
				var dce *DeadChannelError
				if !errors.As(err, &dce) || dce.Channel != dead {
					t.Fatalf("Execute error = %v, want DeadChannelError on channel %d", err, dead)
				}
			}

			repaired, rep, err := RepairSchedule(s)
			if err != nil {
				t.Fatalf("RepairSchedule: %v", err)
			}
			if rep.Rerouted == 0 || len(rep.DeadChannels) != 1 || rep.DeadChannels[0] != dead {
				t.Fatalf("report = %+v, want reroutes around channel %d", rep, dead)
			}
			for _, cid := range usedChannels(repaired) {
				if g.Channel(cid).Down() {
					t.Fatalf("repaired schedule still rides dead channel %d", cid)
				}
			}
			// Validate runs the full static verifier (hazards, links,
			// conservation, in-order) — the Contract survives the repair.
			if err := repaired.Validate(); err != nil {
				t.Fatalf("repaired schedule: %v", err)
			}
			// The repaired schedule still computes an exact AllReduce.
			checkAllReduceData(t, repaired, rng, 1024)
			// And it executes end to end on the timing engine.
			res, err := repaired.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatalf("repaired Execute: %v", err)
			}
			if res.Total <= 0 {
				t.Fatal("repaired run has non-positive makespan")
			}
			// The original schedule is untouched by the repair.
			for _, tr := range s.transfers {
				if !tr.isMarker() && tr.channel == dead {
					return // still references the dead channel, as built
				}
			}
			t.Fatal("original schedule mutated by RepairSchedule")
		})
	}
}

// Killing every dead channel one at a time across the whole schedule: every
// single-link failure on a DGX-1 double tree must be repairable (the hybrid
// mesh-cube always has a parallel link or a one-GPU detour).
func TestRepairScheduleEverySingleLinkFailure(t *testing.T) {
	base, err := Build(Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, dead := range usedChannels(base) {
		g := dgx1()
		s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
		if err != nil {
			t.Fatal(err)
		}
		g.KillChannel(dead)
		repaired, _, err := RepairSchedule(s)
		if err != nil {
			t.Fatalf("channel %d: %v", dead, err)
		}
		if err := repaired.Validate(); err != nil {
			t.Fatalf("channel %d: repaired schedule: %v", dead, err)
		}
	}
}

// When a GPU loses every outgoing link, no detour exists: the repair must
// fail with a structured UnrepairableError, never hang or panic.
func TestRepairScheduleUnrepairable(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, cid := range g.Out(topology.NodeID(2)) {
		g.KillChannel(cid)
	}
	_, _, err = RepairSchedule(s)
	var ue *UnrepairableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnrepairableError", err)
	}
	if ue.Error() == "" {
		t.Fatal("empty error string")
	}
}

// A healthy schedule repairs to itself: no reroutes, no added hops.
func TestRepairScheduleNoFaultsIsIdentity(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	repaired, rep, err := RepairSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted != 0 || rep.AddedHops != 0 || len(rep.DeadChannels) != 0 {
		t.Fatalf("report = %+v, want identity", rep)
	}
	if repaired.NumTransfers() != s.NumTransfers() {
		t.Fatalf("transfers %d != %d", repaired.NumTransfers(), s.NumTransfers())
	}
}

// A degraded (but alive) channel needs no repair, only more time: Execute
// succeeds and the makespan grows.
func TestDegradedChannelSlowsButCompletes(t *testing.T) {
	build := func(g *topology.Graph) *Schedule {
		s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	gh := dgx1()
	healthy, err := build(gh).ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gd := dgx1()
	sd := build(gd)
	gd.DegradeChannel(usedChannels(sd)[0], 8)
	degraded, err := sd.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Total <= healthy.Total {
		t.Fatalf("degraded makespan %v <= healthy %v", degraded.Total, healthy.Total)
	}
}
