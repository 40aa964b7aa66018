package collective

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"ccube/internal/topology"
)

// Every single-link failure is incrementally repairable on the DGX-1 double
// tree, the delta verifier accepts the patch, and — the acceptance property
// — every CheckPatch-verified patch also passes the full static verifier
// and still computes an exact AllReduce.
func TestRepairIncrementalEverySingleLinkFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
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
		patched, rep, err := RepairScheduleIncremental(s, []topology.ChannelID{dead}, nil)
		if err != nil {
			t.Fatalf("channel %d: %v", dead, err)
		}
		if rep.Rerouted == 0 || len(rep.DeadChannels) != 1 || rep.DeadChannels[0] != dead {
			t.Fatalf("channel %d: report = %+v, want reroutes around it", dead, rep)
		}
		if len(rep.OldToNew) != s.NumTransfers() {
			t.Fatalf("channel %d: OldToNew covers %d of %d transfers", dead, len(rep.OldToNew), s.NumTransfers())
		}
		if len(rep.Touched) == 0 {
			t.Fatalf("channel %d: patch rerouted %d transfers but touched none", dead, rep.Rerouted)
		}
		// Delta verification is the execution gate: the repair only returns
		// a patch that passed it, stamped for execution.
		if patched.BuiltFingerprint() != g.Fingerprint() {
			t.Fatalf("channel %d: patch returned without its verification stamp", dead)
		}
		// CheckPatch-verified implies full-Verify clean: the delta proofs
		// must never accept a schedule the whole-program oracle rejects.
		if err := patched.Validate(); err != nil {
			t.Fatalf("channel %d: CheckPatch accepted but full verification rejects: %v", dead, err)
		}
		for _, cid := range usedChannels(patched) {
			if g.Channel(cid).Down() {
				t.Fatalf("channel %d: patched schedule still rides dead channel %d", dead, cid)
			}
		}
		checkAllReduceData(t, patched, rng, 1024)
		// The base schedule is untouched.
		found := false
		for _, tr := range s.transfers {
			if !tr.isMarker() && tr.channel == dead {
				found = true
			}
		}
		if !found {
			t.Fatalf("channel %d: base schedule mutated by incremental repair", dead)
		}
	}
}

// The patch is genuinely incremental: on a fabric with parallel channels the
// vast majority of transfers survive untouched, and the untouched ones keep
// their channel assignments under the OldToNew renumbering.
func TestRepairIncrementalTouchesOnlyStrandedRegion(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	dead := usedChannels(s)[0]
	g.KillChannel(dead)
	patched, rep, err := RepairScheduleIncremental(s, []topology.ChannelID{dead}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Touched) >= s.NumTransfers()/2 {
		t.Fatalf("patch touched %d of %d transfers — not incremental", len(rep.Touched), s.NumTransfers())
	}
	touched := make(map[int]bool, len(rep.Touched))
	for _, id := range rep.Touched {
		touched[id] = true
	}
	for old, tr := range s.transfers {
		id := rep.OldToNew[old]
		if touched[id] || tr.isMarker() {
			continue
		}
		if patched.transfers[id].channel != tr.channel || patched.transfers[id].bytes != tr.bytes {
			t.Fatalf("untouched transfer %d changed channel/bytes under renumbering", old)
		}
	}
}

// Skip masks executed transfers out of the patch: a transfer that already
// ran on the (now dead) channel is left in place, and only the unexecuted
// remainder is rerouted. This is the live-adaptation contract.
func TestRepairIncrementalSkipsExecutedPrefix(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	dead := usedChannels(s)[0]
	var onDead []int
	for _, tr := range s.transfers {
		if !tr.isMarker() && tr.channel == dead {
			onDead = append(onDead, tr.id)
		}
	}
	if len(onDead) < 2 {
		t.Skipf("only %d transfers on channel %d", len(onDead), dead)
	}
	skip := make([]bool, s.NumTransfers())
	skip[onDead[0]] = true // pretend the first stranded transfer already executed
	g.KillChannel(dead)
	patched, rep, err := RepairScheduleIncremental(s, []topology.ChannelID{dead}, &PatchOptions{Skip: skip})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted != len(onDead)-1 {
		t.Fatalf("rerouted %d, want %d (one transfer was executed)", rep.Rerouted, len(onDead)-1)
	}
	if got := patched.transfers[rep.OldToNew[onDead[0]]].channel; got != dead {
		t.Fatalf("executed transfer moved to channel %d", got)
	}
	// A patched schedule keeping an executed transfer on a dead channel can
	// only be resumed, never re-verified whole against the dead fabric —
	// the delta verifier (static structure) must still have accepted it,
	// which the nil error above already shows.

	// Bad skip set length is rejected.
	if _, _, err := RepairScheduleIncremental(s, []topology.ChannelID{dead}, &PatchOptions{Skip: make([]bool, 3)}); err == nil {
		t.Fatal("short skip set accepted")
	}
}

// A degraded channel with a healthy sibling gets its load rebalanced across
// the parallel group, and the patch verifies.
func TestRepairIncrementalDegradedRebalance(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Find a used channel with a healthy parallel sibling.
	var target topology.ChannelID = -1
	for _, cid := range usedChannels(s) {
		ch := g.Channel(cid)
		if len(g.ChannelsBetween(ch.From, ch.To)) > 1 {
			target = cid
			break
		}
	}
	if target < 0 {
		t.Skip("no parallel channels on this topology")
	}
	g.DegradeChannel(target, 16)
	patched, rep, err := RepairScheduleIncremental(s, []topology.ChannelID{target}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted == 0 || rep.Rebalanced != rep.Rerouted || rep.AddedHops != 0 {
		t.Fatalf("report = %+v, want pure rebalancing off the degraded channel", rep)
	}
	if err := patched.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rebalancing must actually relieve the slow link: the degraded run on
	// the patched schedule beats the unpatched one.
	slow, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := patched.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fast.Total >= slow.Total {
		t.Fatalf("rebalanced makespan %v >= degraded %v", fast.Total, slow.Total)
	}
}

// No healthy replacement route: the incremental repair fails with the same
// structured UnrepairableError the full repair uses, so the fault layer's
// fallback triggers.
func TestRepairIncrementalUnrepairable(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	var killed []topology.ChannelID
	for _, cid := range g.Out(topology.NodeID(2)) {
		g.KillChannel(cid)
		killed = append(killed, cid)
	}
	_, _, err = RepairScheduleIncremental(s, killed, nil)
	var ue *UnrepairableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnrepairableError", err)
	}
}

// Patching around a channel the schedule never uses is the identity.
func TestRepairIncrementalIdentity(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[topology.ChannelID]bool)
	for _, cid := range usedChannels(s) {
		used[cid] = true
	}
	unused := topology.ChannelID(-1)
	for c := 0; c < g.NumChannels(); c++ {
		if !used[topology.ChannelID(c)] {
			unused = topology.ChannelID(c)
			break
		}
	}
	if unused < 0 {
		t.Skip("schedule uses every channel")
	}
	g.KillChannel(unused)
	patched, rep, err := RepairScheduleIncremental(s, []topology.ChannelID{unused}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted != 0 || len(rep.Touched) != 0 || patched.NumTransfers() != s.NumTransfers() {
		t.Fatalf("report = %+v, want identity", rep)
	}

	// Out-of-range channel ids are rejected.
	if _, _, err := RepairScheduleIncremental(s, []topology.ChannelID{topology.ChannelID(g.NumChannels())}, nil); err == nil {
		t.Fatal("out-of-range channel accepted")
	}
}

// verifyPatch rejects tampering: a patched program whose untouched region
// was silently modified must fail delta verification — the proof-transfer
// argument depends on untouched ops being bit-identical modulo renumbering.
func TestVerifyPatchRejectsTampering(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	dead := usedChannels(s)[0]
	g.KillChannel(dead)
	patched, rep, err := RepairScheduleIncremental(s, []topology.ChannelID{dead}, nil)
	if err != nil {
		t.Fatal(err)
	}
	touched := make(map[int]bool)
	for _, id := range rep.Touched {
		touched[id] = true
	}
	// Retarget one untouched transfer onto a sibling channel behind the
	// verifier's back.
	tampered := false
	for _, tr := range patched.transfers {
		if tr.isMarker() || touched[tr.id] {
			continue
		}
		ch := patched.Graph.Channel(tr.channel)
		for _, sib := range patched.Graph.ChannelsBetween(ch.From, ch.To) {
			if sib != tr.channel && !patched.Graph.Channel(sib).Down() {
				tr.channel = sib
				tampered = true
				break
			}
		}
		if tampered {
			break
		}
	}
	if !tampered {
		t.Skip("no untouched transfer with a parallel sibling")
	}
	if err := verifyPatch(s, patched, rep); err == nil {
		t.Fatal("verifyPatch accepted a tampered untouched region")
	}

	// And a nil report is rejected outright.
	if err := verifyPatch(s, patched, nil); err == nil {
		t.Fatal("verifyPatch accepted a nil report")
	}
}
