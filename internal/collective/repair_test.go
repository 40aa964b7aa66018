package collective

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ccube/internal/des"
	"ccube/internal/topology"
)

// usedChannels returns the distinct channels a schedule rides, id order.
func usedChannels(s *Schedule) []topology.ChannelID {
	seen := make(map[topology.ChannelID]bool)
	var out []topology.ChannelID
	for i := range s.ops {
		op := &s.ops[i]
		if op.Marker() || seen[op.ChannelID()] {
			continue
		}
		seen[op.ChannelID()] = true
		out = append(out, op.ChannelID())
	}
	return out
}

// checkRepaired asserts the repair contract on a successful repair of base:
// the result is stamped for the current fabric, maps every base transfer,
// rides no down channel, passes the full static verifier (the oracle the
// delta check must never contradict) and still computes an exact AllReduce.
func checkRepaired(t *testing.T, base, repaired *Schedule, rep *PatchReport, rng *rand.Rand) {
	t.Helper()
	g := repaired.Graph
	if repaired.BuiltFingerprint() != g.Fingerprint() {
		t.Fatal("repair returned without its verification stamp")
	}
	if len(rep.OldToNew) != base.NumTransfers() {
		t.Fatalf("OldToNew covers %d of %d transfers", len(rep.OldToNew), base.NumTransfers())
	}
	for _, cid := range usedChannels(repaired) {
		if g.Channel(cid).Down() {
			t.Fatalf("repaired schedule still rides dead channel %d", cid)
		}
	}
	if err := repaired.Validate(); err != nil {
		t.Fatalf("CheckPatch accepted but full verification rejects: %v", err)
	}
	checkAllReduceData(t, repaired, rng, 64)
}

// repairTopologies are the fabrics of the repair matrix: duplicated NVLinks
// (dgx1), a cube with single cross links (dgx1-low), a switched mesh whose
// trees share channels (fc:8), and a two-level hierarchy (hier16).
var repairTopologies = []struct {
	name   string
	graph  func() *topology.Graph
	shared bool
}{
	{"dgx1", dgx1, false},
	{"dgx1-low", func() *topology.Graph {
		cfg := topology.DefaultDGX1Config()
		cfg.LowBandwidth = true
		return topology.DGX1(cfg)
	}, false},
	{"fc:8", func() *topology.Graph { return topology.FullyConnected(8, 25e9, 3*des.Microsecond) }, true},
	{"hier16", func() *topology.Graph { return topology.Hierarchy(topology.DefaultHierarchyConfig(16)) }, false},
}

// TestRepairMatrix drives the one repair engine over every topology and
// algorithm: each channel the schedule rides is killed alone and together
// with all its parallel channels, then 40 seeded mixes of 1–4 physical-link
// kills and degrades are patched at once. A kill may leave no healthy
// route (a structured *UnrepairableError); every repair that succeeds must
// meet checkRepaired.
func TestRepairMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, topo := range repairTopologies {
		for alg := AlgRing; alg <= AlgHalvingDoubling; alg++ {
			t.Run(topo.name+"/"+alg.String(), func(t *testing.T) {
				build := func() *Schedule {
					s, err := Build(Config{Graph: topo.graph(), Algorithm: alg, Bytes: 1 << 18, Chunks: 4,
						AllowSharedChannels: topo.shared})
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				repaired := 0
				try := func(s *Schedule, channels []topology.ChannelID) *PatchReport {
					t.Helper()
					out, rep, err := RepairSchedule(s, channels, nil)
					var ue *UnrepairableError
					if errors.As(err, &ue) {
						return nil
					}
					if err != nil {
						t.Fatal(err)
					}
					checkRepaired(t, s, out, rep, rng)
					repaired++
					return rep
				}
				for _, dead := range usedChannels(build()) {
					for _, withSiblings := range []bool{false, true} {
						s := build()
						g := s.Graph
						g.KillChannel(dead)
						if withSiblings {
							ch := g.Channel(dead)
							for _, sib := range g.ChannelsBetween(ch.From, ch.To) {
								g.KillChannel(sib)
							}
						}
						rep := try(s, g.DownChannels())
						if rep != nil && !withSiblings &&
							(rep.Rerouted == 0 || len(rep.Touched) == 0 || len(rep.DeadChannels) != 1 || rep.DeadChannels[0] != dead) {
							t.Fatalf("channel %d: report = %+v, want reroutes around it", dead, rep)
						}
					}
				}
				for seed := int64(0); seed < 40; seed++ {
					s := build()
					try(s, injectLinkFaults(s.Graph, seed))
				}
				if repaired == 0 {
					t.Fatal("no fault in the matrix was repairable")
				}
			})
		}
	}
}

// Every single-link failure on a DGX-1 is repairable for every algorithm:
// the hybrid mesh-cube always has a parallel link or a one-GPU detour, so
// unlike the matrix (which tolerates unrepairable kills on sparser fabrics)
// an UnrepairableError here is a failure.
func TestRepairScheduleEverySingleLinkFailure(t *testing.T) {
	for alg := AlgRing; alg <= AlgHalvingDoubling; alg++ {
		cfg := Config{Algorithm: alg, Bytes: 1 << 18, Chunks: 4}
		cfg.Graph = dgx1()
		base, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, dead := range usedChannels(base) {
			cfg.Graph = dgx1()
			s, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Graph.KillChannel(dead)
			repaired, _, err := RepairSchedule(s, cfg.Graph.DownChannels(), nil)
			if err != nil {
				t.Fatalf("%v channel %d: %v", alg, dead, err)
			}
			if err := repaired.Validate(); err != nil {
				t.Fatalf("%v channel %d: repaired schedule: %v", alg, dead, err)
			}
		}
	}
}

// Every single-link failure on the DGX-1 double tree is patched around
// exactly that channel: the report names it, reroutes and touches
// transfers, the patch meets checkRepaired over a large buffer, and the
// base schedule still rides the dead channel as built.
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
		patched, rep, err := RepairSchedule(s, []topology.ChannelID{dead}, nil)
		if err != nil {
			t.Fatalf("channel %d: %v", dead, err)
		}
		if rep.Rerouted == 0 || len(rep.DeadChannels) != 1 || rep.DeadChannels[0] != dead {
			t.Fatalf("channel %d: report = %+v, want reroutes around it", dead, rep)
		}
		if len(rep.Touched) == 0 {
			t.Fatalf("channel %d: patch rerouted %d transfers but touched none", dead, rep.Rerouted)
		}
		checkRepaired(t, s, patched, rep, rng)
		checkAllReduceData(t, patched, rng, 1024)
		found := false
		for i := range s.ops {
			if !s.ops[i].Marker() && s.ops[i].ChannelID() == dead {
				found = true
			}
		}
		if !found {
			t.Fatalf("channel %d: base schedule mutated by repair", dead)
		}
	}
}

// injectLinkFaults kills or degrades 1–4 seeded physical links of g (both
// directions of each) and returns every channel it touched.
func injectLinkFaults(g *topology.Graph, seed int64) []topology.ChannelID {
	rng := rand.New(rand.NewSource(seed))
	var links []topology.ChannelID
	for ci := 0; ci < g.NumChannels(); ci++ {
		if c := g.Channel(topology.ChannelID(ci)); c.From < c.To {
			links = append(links, c.ID)
		}
	}
	var hit []topology.ChannelID
	for _, i := range rng.Perm(len(links))[:1+rng.Intn(4)] {
		c := g.Channel(links[i])
		kill, factor := rng.Intn(2) == 0, 2+6*rng.Float64()
		for _, cid := range append(g.ChannelsBetween(c.To, c.From), c.ID) {
			if g.Channel(cid).Tag != c.Tag {
				continue
			}
			if kill {
				g.KillChannel(cid)
			} else {
				g.DegradeChannel(cid, factor)
			}
			hit = append(hit, cid)
		}
	}
	return hit
}

// The two-ring hierarchy (the ring configuration of ext-churn) leaves idle
// links around every ring edge, so every single-link repair takes an idle
// detour rather than doubling up on a channel the rings already load.
func TestRepairTwoRingHierarchyTakesIdleDetour(t *testing.T) {
	const nodes = 16
	identity := make([]int, nodes)
	for i := range identity {
		identity[i] = i
	}
	build := func() *Schedule {
		s, err := Build(Config{Graph: topology.Hierarchy(topology.DefaultHierarchyConfig(nodes)),
			Algorithm: AlgRing, Bytes: 1 << 20, RingOrders: [][]int{identity, identity}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	used := make(map[topology.ChannelID]bool)
	for _, cid := range usedChannels(build()) {
		used[cid] = true
	}
	for cid := range used {
		s := build()
		s.Graph.KillChannel(cid)
		repaired, rep, err := RepairSchedule(s, s.Graph.DownChannels(), nil)
		if err != nil {
			t.Fatalf("channel %d: %v", cid, err)
		}
		if rep.AddedHops == 0 {
			t.Fatalf("channel %d: repair %v added no detour hop", cid, rep.Routes)
		}
		for _, id := range rep.Touched {
			if ch := repaired.ops[id].ChannelID(); used[ch] {
				t.Fatalf("channel %d: rerouted transfer %d rides busy channel %d (%v)", cid, id, ch, rep.Routes)
			}
		}
	}
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
			if err := s.Validate(); err == nil {
				t.Fatal("schedule over a dead channel verified clean")
			}
			// Restamped for the killed fabric, the run gets past the
			// staleness check to lower's dead-channel check.
			s.Stamp()
			if _, err := s.ExecuteCtx(context.Background()); err == nil {
				t.Fatal("Execute over a dead channel succeeded")
			} else {
				var dce *DeadChannelError
				if !errors.As(err, &dce) || dce.Channel != dead {
					t.Fatalf("Execute error = %v, want DeadChannelError on channel %d", err, dead)
				}
			}

			repaired, rep, err := RepairSchedule(s, g.DownChannels(), nil)
			if err != nil {
				t.Fatalf("RepairSchedule: %v", err)
			}
			if rep.Rerouted == 0 || len(rep.DeadChannels) != 1 || rep.DeadChannels[0] != dead {
				t.Fatalf("report = %+v, want reroutes around channel %d", rep, dead)
			}
			checkRepaired(t, s, repaired, rep, rng)
			// And it executes end to end on the timing engine.
			res, err := repaired.ExecuteCtx(context.Background())
			if err != nil {
				t.Fatalf("repaired Execute: %v", err)
			}
			if res.Total <= 0 {
				t.Fatal("repaired run has non-positive makespan")
			}
			// The original schedule is untouched by the repair.
			for i := range s.ops {
				if !s.ops[i].Marker() && s.ops[i].ChannelID() == dead {
					return // still references the dead channel, as built
				}
			}
			t.Fatal("original schedule mutated by RepairSchedule")
		})
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
	_, _, err = RepairSchedule(s, g.DownChannels(), nil)
	var ue *UnrepairableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnrepairableError", err)
	}
	if ue.Error() == "" {
		t.Fatal("empty error string")
	}
}

// Passed only the channels it killed (not the fabric's whole down set), the
// repair still fails with an UnrepairableError, and the error names one of
// those channels and the isolated GPU as its source.
func TestRepairIncrementalUnrepairable(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	killed := make(map[topology.ChannelID]bool)
	var list []topology.ChannelID
	for _, cid := range g.Out(topology.NodeID(2)) {
		g.KillChannel(cid)
		killed[cid] = true
		list = append(list, cid)
	}
	_, _, err = RepairSchedule(s, list, nil)
	var ue *UnrepairableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want *UnrepairableError", err)
	}
	if !killed[ue.Channel] || ue.From != 2 {
		t.Fatalf("error names channel %d (%d->%d), want a killed outgoing channel of GPU 2", ue.Channel, ue.From, ue.To)
	}
}

// A healthy schedule repairs to itself: no reroutes, no added hops, and
// every transfer keeps its id.
func TestRepairScheduleNoFaultsIsIdentity(t *testing.T) {
	g := dgx1()
	s, err := Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	repaired, rep, err := RepairSchedule(s, g.DownChannels(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted != 0 || rep.AddedHops != 0 || len(rep.DeadChannels) != 0 || len(rep.Touched) != 0 {
		t.Fatalf("report = %+v, want identity", rep)
	}
	if repaired.NumTransfers() != s.NumTransfers() {
		t.Fatalf("transfers %d != %d", repaired.NumTransfers(), s.NumTransfers())
	}
	for id := range s.ops {
		if rep.OldToNew[id] != id || !reflect.DeepEqual(repaired.ops[id], s.ops[id]) {
			t.Fatalf("transfer %d renumbered or moved by an empty repair", id)
		}
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
	if _, err := sd.adopt(); err != nil { // re-proved for the degraded fabric
		t.Fatal(err)
	}
	degraded, err := sd.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Total <= healthy.Total {
		t.Fatalf("degraded makespan %v <= healthy %v", degraded.Total, healthy.Total)
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
	patched, rep, err := RepairSchedule(s, []topology.ChannelID{dead}, nil)
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
	for old := range s.ops {
		tr, id := &s.ops[old], rep.OldToNew[old]
		if touched[id] || tr.Marker() {
			continue
		}
		if patched.ops[id].Channel != tr.Channel || patched.ops[id].Chunk != tr.Chunk {
			t.Fatalf("untouched transfer %d changed channel/chunk under renumbering", old)
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
	for i := range s.ops {
		if !s.ops[i].Marker() && s.ops[i].ChannelID() == dead {
			onDead = append(onDead, i)
		}
	}
	if len(onDead) < 2 {
		t.Skipf("only %d transfers on channel %d", len(onDead), dead)
	}
	skip := make([]bool, s.NumTransfers())
	skip[onDead[0]] = true // pretend the first stranded transfer already executed
	g.KillChannel(dead)
	patched, rep, err := RepairSchedule(s, g.DownChannels(), skip)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted != len(onDead)-1 {
		t.Fatalf("rerouted %d, want %d (one transfer was executed)", rep.Rerouted, len(onDead)-1)
	}
	if got := patched.ops[rep.OldToNew[onDead[0]]].ChannelID(); got != dead {
		t.Fatalf("executed transfer moved to channel %d", got)
	}
	// A patched schedule keeping an executed transfer on a dead channel can
	// only be resumed, never re-verified whole against the dead fabric —
	// the delta verifier (static structure) must still have accepted it,
	// which the nil error above already shows.

	// Bad skip set length is rejected.
	if _, _, err := RepairSchedule(s, g.DownChannels(), make([]bool, 3)); err == nil {
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
	patched, rep, err := RepairSchedule(s, []topology.ChannelID{target}, nil)
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
	// the patched schedule beats the unpatched one, re-proved for the
	// degraded fabric.
	if _, err := s.adopt(); err != nil {
		t.Fatal(err)
	}
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
	patched, rep, err := RepairSchedule(s, []topology.ChannelID{unused}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rerouted != 0 || len(rep.Touched) != 0 || patched.NumTransfers() != s.NumTransfers() {
		t.Fatalf("report = %+v, want identity", rep)
	}

	// Out-of-range channel ids are rejected.
	if _, _, err := RepairSchedule(s, []topology.ChannelID{topology.ChannelID(g.NumChannels())}, nil); err == nil {
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
	patched, rep, err := RepairSchedule(s, g.DownChannels(), nil)
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
	for i := range patched.ops {
		tr := &patched.ops[i]
		if tr.Marker() || touched[i] {
			continue
		}
		ch := patched.Graph.Channel(tr.ChannelID())
		for _, sib := range patched.Graph.ChannelsBetween(ch.From, ch.To) {
			if sib != tr.ChannelID() && !patched.Graph.Channel(sib).Down() {
				tr.Channel = int32(sib)
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
