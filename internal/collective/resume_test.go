package collective

import (
	"context"
	"errors"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// forceCheckpoint runs the schedule with a timed kill on a used channel and
// returns the checkpoint of the executed prefix plus the channel that died.
// It searches (channel, time) pairs until one actually aborts the run with
// some progress made: a kill only fires if the channel is reserved at or
// after the fail time.
func forceCheckpoint(t *testing.T, s *Schedule) (*Checkpoint, topology.ChannelID) {
	t.Helper()
	healthy, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, dead := range usedChannels(s) {
		for div := des.Time(4); div >= 2; div-- {
			res := s.Graph.Resources()
			res[dead].FailAt(healthy.Total / div)
			_, cp, err := s.ExecuteCheckpointCtx(context.Background(), res)
			if err == nil {
				continue
			}
			var fe *des.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v, want *des.FaultError", err)
			}
			if cp == nil {
				t.Fatal("aborted run returned no checkpoint")
			}
			if cp.NumExecuted == 0 {
				continue
			}
			return cp, dead
		}
	}
	t.Fatal("no timed kill aborts this schedule mid-run")
	return nil, -1
}

// The full adapt cycle at the collective layer: checkpoint on a mid-run
// kill, incremental patch with the executed prefix masked, delta
// verification, checkpoint remap, resume — the merged result is complete,
// serialized per channel, and keeps the absolute clock.
func TestCheckpointPatchResume(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	cp, dead := forceCheckpoint(t, s)
	if cp.NumExecuted == 0 || cp.NumExecuted >= s.NumTransfers() {
		t.Fatalf("executed prefix = %d of %d, want a strict prefix", cp.NumExecuted, s.NumTransfers())
	}
	if cp.At <= 0 {
		t.Fatalf("checkpoint at %v", cp.At)
	}

	g.KillChannel(dead)
	patched, rep, err := RepairSchedule(s, g.DownChannels(), cp.Executed)
	if err != nil {
		t.Fatal(err)
	}
	rcp := cp.Remap(rep.OldToNew, patched.NumTransfers())
	if rcp.NumExecuted != cp.NumExecuted || rcp.At != cp.At {
		t.Fatalf("remap changed the executed count/time: %d@%v vs %d@%v",
			rcp.NumExecuted, rcp.At, cp.NumExecuted, cp.At)
	}

	res := g.Resources()
	result, next, err := patched.ResumeOnCtx(context.Background(), rcp, res)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if next != nil {
		t.Fatal("successful resume returned a checkpoint")
	}
	if result.Total < rcp.At {
		t.Fatalf("resumed total %v < checkpoint time %v — the clock restarted", result.Total, rcp.At)
	}
	for c, at := range result.ChunkDone {
		if at <= 0 {
			t.Fatalf("chunk %d done at %v", c, at)
		}
	}
	for n := range result.ChunkReady {
		for c, at := range result.ChunkReady[n] {
			if at <= 0 {
				t.Fatalf("chunk %d never ready at node index %d", c, n)
			}
		}
	}
	for _, r := range res {
		if err := r.ValidateSerialized(); err != nil {
			t.Fatal(err)
		}
	}
}

// Carryover occupancy: a channel busy until FreeAt when the run aborted
// stays busy after resume — resumed work queues behind it, so the resumed
// total can never undercut the occupancy horizon.
func TestResumeHonorsCarryover(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	cp, dead := forceCheckpoint(t, s)
	g.KillChannel(dead)
	patched, rep, err := RepairSchedule(s, g.DownChannels(), cp.Executed)
	if err != nil {
		t.Fatal(err)
	}
	rcp := cp.Remap(rep.OldToNew, patched.NumTransfers())
	var horizon des.Time
	for _, f := range rcp.FreeAt {
		if f > horizon {
			horizon = f
		}
	}
	if horizon <= 0 {
		t.Fatal("aborted run left no channel occupancy")
	}
	result, _, err := patched.ResumeOnCtx(context.Background(), rcp, g.Resources())
	if err != nil {
		t.Fatal(err)
	}
	if result.Total < horizon {
		t.Fatalf("resumed total %v < occupancy horizon %v", result.Total, horizon)
	}
}

// Resume guards its inputs: nil checkpoint, un-remapped checkpoint, and a
// remaining transfer on a dead channel are all structured errors.
func TestResumeInputValidation(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	cp, dead := forceCheckpoint(t, s)

	if _, _, err := s.ResumeOnCtx(context.Background(), nil, g.Resources()); err == nil {
		t.Fatal("nil checkpoint accepted")
	}
	short := &Checkpoint{Executed: make([]bool, 1), End: make([]des.Time, 1), FreeAt: cp.FreeAt}
	if _, _, err := s.ResumeOnCtx(context.Background(), short, g.Resources()); err == nil {
		t.Fatal("mis-sized checkpoint accepted")
	}

	// Resuming the unpatched schedule on the dead fabric: a remaining
	// transfer still rides the dead channel.
	g.KillChannel(dead)
	_, _, rerr := s.ResumeOnCtx(context.Background(), cp, g.Resources())
	var dce *DeadChannelError
	if !errors.As(rerr, &dce) || dce.Channel != dead {
		t.Fatalf("err = %v, want *DeadChannelError on channel %d", rerr, dead)
	}
}

// A successful run through ExecuteCheckpointCtx returns no checkpoint and
// matches ExecuteOnCtx exactly.
func TestExecuteCheckpointNoFault(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, cp, err := s.ExecuteCheckpointCtx(context.Background(), g.Resources())
	if err != nil {
		t.Fatal(err)
	}
	if cp != nil {
		t.Fatal("healthy run returned a checkpoint")
	}
	if got.Total != want.Total {
		t.Fatalf("total %v != %v", got.Total, want.Total)
	}
}
