package schedcheck_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/gpusim"
	"ccube/internal/schedcheck"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// FuzzSchedCheck corrupts valid schedules and asserts the verifier notices.
// Nine corruption kinds mirror the mistakes a scheduler change could make:
// dropping a dependency edge (overlap race), retargeting a transfer onto a
// channel that does not start at its source (phantom link), swapping the
// chunk indices of two transfers (mis-routed data), killing a channel
// the schedule rides (dead link — the verifier must flag the unrepaired
// schedule, and the repaired one must verify clean), collapsing two
// parallel channels so concurrent streams share a link (contention),
// adding a forward dependency on a shared channel (wait-for deadlock),
// incrementally patching around a killed channel (the delta verifier must
// agree with the full one on the genuine patch and flag a tampered one),
// and mutating a schedule produced by the synthesis compiler — corrupting a
// chunk identity or dropping a lowered tree-edge dependency — so compiled
// programs get the same adversarial coverage as the hand-written menu —
// and naming a node outside the graph (negative or past NumNodes) as a
// participant, source, destination or final, which must be rejected as
// malformed structure, never panic.
// Every schedule the verifier accepts — pristine, repaired, genuinely
// patched, synthesized — must also run on the goroutine interpreter with the
// same output as ExecuteData: the second, data-level oracle.
// The contention and wait-for kinds corrupt performance, not delivery, so
// the shallow classes must stay silent and only CheckDeep may object. Each
// corruption is guarded so the assertion only fires when the mutation is
// provably observable — e.g. a dropped edge that another dependency path
// still covers must instead keep the program clean. Every program verified
// with at most maxExactOps ops also has its reachability closure checked
// against BFS.
// Run `go test -fuzz=FuzzSchedCheck ./internal/schedcheck` to explore
// beyond the seeds; `go test` replays the seed corpus as regression tests.
func FuzzSchedCheck(f *testing.F) {
	for algo := uint8(0); algo < 6; algo++ {
		for kind := uint8(0); kind < 8; kind++ {
			f.Add(algo, kind, uint16(0), uint16(7))
			f.Add(algo, kind, uint16(13), uint16(101))
		}
	}
	// Kind 8: one seed per node-naming slot and bound.
	for field := uint16(0); field < 8; field++ {
		f.Add(uint8(0), uint8(8), field, uint16(5))
	}
	f.Fuzz(func(t *testing.T, algo, kind uint8, pick, pick2 uint16) {
		var s *collective.Schedule
		if kind%fuzzKinds == 7 {
			s = synthesize(t, synthGraph(algo), true)
		} else {
			var err error
			if s, err = collective.Build(fuzzConfig(algo)); err != nil {
				t.Fatal(err)
			}
		}
		fuzzOne(t, s, kind, pick, pick2)
	})
}

// fuzzConfig is the built-in schedule algo%6 corrupts, on a fresh DGX-1.
func fuzzConfig(algo uint8) collective.Config {
	return collective.Config{
		Graph:     topology.DGX1(topology.DefaultDGX1Config()),
		Algorithm: collective.Algorithm(algo % 6),
		Bytes:     1 << 18,
		Chunks:    6,
	}
}

// synthGraph is the fabric the synthesis kind compiles for: fully connected
// for even algo, the DGX-1 for odd.
func synthGraph(algo uint8) *topology.Graph {
	if algo%2 == 0 {
		return topology.FullyConnected(8, 10e9, 5*des.Microsecond)
	}
	return topology.DGX1(topology.DefaultDGX1Config())
}

// synthesize compiles a schedule for g with the synthesis compiler.
func synthesize(t *testing.T, g *topology.Graph, noCache bool) *collective.Schedule {
	t.Helper()
	res, err := synth.Synthesize(context.Background(), g, 1<<18, synth.Options{MaxChunks: 8, NoCache: noCache})
	if err != nil {
		t.Fatal(err)
	}
	return res.Schedule
}

// fuzzOne requires s to verify pristine and to run identically on both data
// executors, then applies corruption kind to it.
func fuzzOne(t *testing.T, s *collective.Schedule, kind uint8, pick, pick2 uint16) {
	g, p := s.Graph, s.Program()
	if r := checkDeep(t, p); !r.OK() {
		t.Fatalf("pristine schedule rejected: %s", r.Err())
	}
	interpreterAgrees(t, s)
	switch kind % fuzzKinds {
	case 0:
		fuzzDropDep(t, p, pick, pick2)
	case 1:
		fuzzRetargetChannel(t, p, pick, pick2)
	case 2:
		fuzzSwapChunks(t, p, pick, pick2)
	case 3:
		fuzzRepair(t, g, s, p, pick)
	case 4:
		fuzzContention(t, p, pick)
	case 5:
		fuzzWaitFor(t, p, pick)
	case 6:
		fuzzIncrementalRepair(t, g, s, p, pick, pick2)
	case 7:
		fuzzSynth(t, p, pick, pick2)
	case 8:
		fuzzNodeIDs(t, p, pick, pick2)
	}
}

// TestFuzzKindsLeaveCachedSchedulesIntact runs every corruption kind
// against cached schedules: a built-in from a schedule cache, and for the
// synthesis kind a compiled schedule from the default cache. A program is a
// view of its schedule, so a kind corrupting the view instead of a Clone
// would corrupt the cached schedule for every later caller: after each kind
// (and with any channel it killed restored) the schedule must still verify
// and its program must equal a deep copy taken before the kind ran.
func TestFuzzKindsLeaveCachedSchedulesIntact(t *testing.T) {
	for kind := uint8(0); kind < fuzzKinds; kind++ {
		corrupted := 0
		for algo := uint8(0); algo < 6; algo++ {
			for _, pick := range [][2]uint16{{0, 7}, {13, 101}, {5, 2}} {
				t.Run(fmt.Sprintf("kind%d/algo%d/pick%d", kind, algo, pick[0]), func(t *testing.T) {
					s := cachedSchedule(t, kind, algo)
					before := s.Program().Clone()
					t.Run("corrupt", func(t *testing.T) {
						fuzzOne(t, s, kind, pick[0], pick[1])
						corrupted++ // not reached when the kind skips
					})
					for _, ch := range s.Graph.DownChannels() {
						s.Graph.RestoreChannel(ch)
					}
					if err := s.Validate(); err != nil {
						t.Fatalf("cached schedule corrupted: %v", err)
					}
					if !reflect.DeepEqual(s.Program(), before) {
						t.Fatal("cached schedule's program changed")
					}
				})
			}
		}
		if corrupted == 0 {
			t.Errorf("kind %d skipped on every cached schedule", kind)
		}
	}
}

// cachedSchedule returns the schedule corruption kind starts from, out of a
// cache: a built-in from a fresh schedule cache, or for the synthesis kind
// a compiled schedule from the default one.
func cachedSchedule(t *testing.T, kind, algo uint8) *collective.Schedule {
	t.Helper()
	if kind%fuzzKinds == 7 {
		g := synthGraph(algo)
		s := synthesize(t, g, false)
		if again := synthesize(t, g, false); again != s {
			t.Fatal("synthesized schedule did not come from the cache")
		}
		return s
	}
	cfg := fuzzConfig(algo)
	c := collective.NewCache()
	s, err := c.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := c.Build(cfg); again != s {
		t.Fatal("schedule did not come from the cache")
	}
	return s
}

// fuzzKinds is the number of corruption kinds FuzzSchedCheck cycles through.
const fuzzKinds = 9

// fuzzNodeIDs names a node outside the graph in one node-naming slot (see
// corruptNodeID). The verifier indexes participants by node id, so every
// entry point must reject the program as malformed structure.
func fuzzNodeIDs(t *testing.T, p *schedcheck.Program, pick, pick2 uint16) {
	p, ok := corruptNodeID(p, int(pick), int(pick2))
	if !ok {
		t.Skip()
	}
	for _, r := range []*schedcheck.Report{check(t, p), checkDeep(t, p)} {
		if !hasClass(r, schedcheck.ClassStructure) {
			t.Fatalf("node id outside the graph (slot %d) not flagged as structure: %s", pick%8, r.Summary())
		}
	}
	if _, err := schedcheck.MakespanBound(p); err == nil {
		t.Fatal("MakespanBound accepted a node id outside the graph")
	}
}

// fuzzSynth corrupts a schedule produced by the synthesis compiler at the
// lowered-program level: chunk-identity corruption (a chunk swap between
// structurally distinct ops) or a dropped tree-edge dependency (an ordering
// edge the lowering emitted between conflicting ops). Both must surface
// exactly like corruptions of hand-written schedules — the verifier owes
// compiled programs the same guarantees.
func fuzzSynth(t *testing.T, p *schedcheck.Program, pick, pick2 uint16) {
	if pick2%2 == 0 {
		fuzzSwapChunks(t, p, pick, pick2/2)
	} else {
		fuzzDropDep(t, p, pick, pick2/2)
	}
}

// interpreterAgrees runs integer-valued inputs through the goroutine
// interpreter and through ExecuteData and requires identical outputs.
func interpreterAgrees(t *testing.T, s *collective.Schedule) {
	t.Helper()
	const elems = 96 // >= every fuzzed schedule's chunk count
	in := make([][]float64, len(s.Nodes))
	in32 := make([][]float32, len(s.Nodes))
	for n := range in {
		in[n] = make([]float64, elems)
		in32[n] = make([]float32, elems)
		for j := range in[n] {
			in[n][j] = float64((n*31+j*7)%17 - 8)
			in32[n][j] = float32(in[n][j])
		}
	}
	want, err := s.ExecuteData(in)
	if err != nil {
		t.Fatalf("ExecuteData: %v", err)
	}
	got, err := gpusim.Run(s.Program(), in32, gpusim.Config{})
	if err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	for n := range want {
		for j := range want[n] {
			if float64(got.Buffers[n][j]) != want[n][j] {
				t.Fatalf("node %d elem %d: interpreter %v, ExecuteData %v", n, j, got.Buffers[n][j], want[n][j])
			}
		}
	}
}

// conflicts reports whether writer w and consumer o touch a common node
// buffer region with a non-commuting access pair, so removing every
// ordering between them must surface as a violation.
func conflicts(w, o *schedcheck.Op) bool {
	if w.Marker() || o.Marker() || !w.Dst.IsNode() || w.Chunk != o.Chunk {
		return false
	}
	if o.Src.IsNode() && o.Src == w.Dst {
		return true // write vs read
	}
	if o.Dst.IsNode() && o.Dst == w.Dst && !(w.Accumulate && o.Accumulate) {
		return true // write vs write, not both commuting accumulations
	}
	return false
}

func fuzzDropDep(t *testing.T, p *schedcheck.Program, pick, pick2 uint16) {
	p = p.Clone()
	type edge struct{ op, di int }
	var candidates []edge
	for i := range p.Ops {
		for di, d := range p.Deps(i) {
			if conflicts(&p.Ops[d], &p.Ops[i]) {
				candidates = append(candidates, edge{i, di})
			}
		}
	}
	if len(candidates) == 0 {
		t.Skip()
	}
	e := candidates[int(pick)%len(candidates)]
	deps := depLists(p)
	d := deps[e.op][e.di]
	deps[e.op] = append(deps[e.op][:e.di], deps[e.op][e.di+1:]...)
	p.SetDeps(deps)
	r := check(t, p)
	if stillReaches(p, d, e.op) {
		// The edge was redundant; the program is semantically unchanged and
		// must still verify.
		if !r.OK() {
			t.Fatalf("redundant edge %d->%d dropped, but: %s", d, e.op, r.Err())
		}
		return
	}
	if r.OK() {
		t.Fatalf("dropped ordering edge %d->%d between conflicting ops went unnoticed", d, e.op)
	}
}

func fuzzRetargetChannel(t *testing.T, p *schedcheck.Program, pick, pick2 uint16) {
	p = p.Clone()
	var candidates []int
	for i := range p.Ops {
		if !p.Ops[i].Marker() && p.Ops[i].Src.IsNode() {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		t.Skip()
	}
	id := candidates[int(pick)%len(candidates)]
	op := &p.Ops[id]
	var wrong []int32
	for ch := 0; ch < p.Graph.NumChannels(); ch++ {
		if p.Graph.Channel(topology.ChannelID(ch)).From != op.Src.NodeID() {
			wrong = append(wrong, int32(ch))
		}
	}
	if len(wrong) == 0 {
		t.Skip()
	}
	op.Channel = wrong[int(pick2)%len(wrong)]
	if r := check(t, p); !hasClass(r, schedcheck.ClassLink) {
		t.Fatalf("transfer %d on a channel not starting at its source went unnoticed: %s",
			id, r.Summary())
	}
}

// fuzzRepair kills a channel the schedule rides, asserts the verifier flags
// the now-stranded program, then repairs the schedule and asserts the
// repaired program passes the full verification suite — the repair preserved
// the Contract.
func fuzzRepair(t *testing.T, g *topology.Graph, s *collective.Schedule, p *schedcheck.Program, pick uint16) {
	seen := make(map[topology.ChannelID]bool)
	var used []topology.ChannelID
	for i := range p.Ops {
		if op := &p.Ops[i]; !op.Marker() && !seen[op.ChannelID()] {
			seen[op.ChannelID()] = true
			used = append(used, op.ChannelID())
		}
	}
	if len(used) == 0 {
		t.Skip()
	}
	dead := used[int(pick)%len(used)]
	g.KillChannel(dead)
	if r := check(t, p); !hasClass(r, schedcheck.ClassLink) {
		t.Fatalf("schedule over dead channel %d went unnoticed: %s", dead, r.Summary())
	}
	repaired, rep, err := collective.RepairSchedule(s, g.DownChannels(), nil)
	if err != nil {
		var ue *collective.UnrepairableError
		if errors.As(err, &ue) {
			t.Skip() // a legitimately unrepairable kill, not a verifier bug
		}
		t.Fatalf("RepairSchedule: %v", err)
	}
	if rep.Rerouted == 0 {
		t.Fatalf("channel %d was used but repair rerouted nothing", dead)
	}
	if r := check(t, repaired.Program()); !r.OK() {
		t.Fatalf("repaired schedule failed verification: %s", r.Err())
	}
	interpreterAgrees(t, repaired)
}

// fuzzIncrementalRepair kills a used channel and patches the live schedule
// around it instead of rebuilding. The genuine patch must pass CheckPatch
// (the delta verifier) AND the full verifier — if the two ever disagree the
// proof-transfer argument is broken. A tampered variant — an untouched op
// whose payload or semantics silently changed — must be flagged by the
// patch class, which pins every untouched op bit-identical modulo
// renumbering.
func fuzzIncrementalRepair(t *testing.T, g *topology.Graph, s *collective.Schedule, p *schedcheck.Program, pick, pick2 uint16) {
	seen := make(map[topology.ChannelID]bool)
	var used []topology.ChannelID
	for i := range p.Ops {
		if op := &p.Ops[i]; !op.Marker() && !seen[op.ChannelID()] {
			seen[op.ChannelID()] = true
			used = append(used, op.ChannelID())
		}
	}
	if len(used) == 0 {
		t.Skip()
	}
	dead := used[int(pick)%len(used)]
	g.KillChannel(dead)
	patched, rep, err := collective.RepairSchedule(s, []topology.ChannelID{dead}, nil)
	if err != nil {
		var ue *collective.UnrepairableError
		if errors.As(err, &ue) {
			t.Skip() // a legitimately unrepairable kill, not a verifier bug
		}
		t.Fatalf("RepairSchedule: %v", err)
	}
	pp := patched.Program()
	spec := &schedcheck.PatchSpec{Base: p, OldToNew: rep.OldToNew, Touched: rep.Touched}
	if r := schedcheck.CheckPatch(pp, spec); !r.OK() {
		t.Fatalf("genuine incremental patch rejected: %s", r.Err())
	}
	if r := check(t, pp); !r.OK() {
		t.Fatalf("CheckPatch accepted but the full verifier rejects: %s", r.Err())
	}
	interpreterAgrees(t, patched)

	touched := make(map[int]bool)
	for _, id := range rep.Touched {
		touched[id] = true
	}
	var untampered []int
	for j := range pp.Ops {
		if !pp.Ops[j].Marker() && !touched[j] {
			untampered = append(untampered, j)
		}
	}
	if len(untampered) == 0 {
		return // nothing untouched to tamper with
	}
	tampered := pp.Clone()
	v := untampered[int(pick2)%len(untampered)]
	if pick2%2 == 0 {
		tampered.ChunkBytes[tampered.Ops[v].Chunk]++
	} else {
		tampered.Ops[v].Accumulate = !tampered.Ops[v].Accumulate
	}
	// The structure pass runs first and may already object (a flipped
	// accumulate can break a structural invariant); either rejection is
	// sound, silence is the bug.
	if r := schedcheck.CheckPatch(tampered, spec); r.OK() ||
		!(hasClass(r, schedcheck.ClassPatch) || hasClass(r, schedcheck.ClassStructure)) {
		t.Fatalf("tampered untouched op %d accepted by CheckPatch: %s", v, r.Summary())
	}
}

// fuzzContention moves a transfer onto a parallel channel (same endpoints)
// already carrying an unordered transfer of another chunk stream. Every
// shallow class still passes — the link is real and the data untouched — but
// the schedule's cross-stream overlap now serializes on one physical link,
// which only the deep contention pass can see.
func fuzzContention(t *testing.T, p *schedcheck.Program, pick uint16) {
	p = p.Clone()
	streams := p.Streams
	if streams < 2 {
		t.Skip() // single-stream schedules claim no channel-level overlap
	}
	type pair struct{ a, b int }
	var candidates []pair
	for i := range p.Ops {
		oi := &p.Ops[i]
		if oi.Marker() {
			continue
		}
		for j := i + 1; j < len(p.Ops); j++ {
			oj := &p.Ops[j]
			if oj.Marker() || oi.Channel == oj.Channel ||
				int(oi.Chunk)%streams == int(oj.Chunk)%streams {
				continue
			}
			ci, cj := p.Graph.Channel(oi.ChannelID()), p.Graph.Channel(oj.ChannelID())
			if ci.From != cj.From || ci.To != cj.To {
				continue
			}
			if stillReaches(p, i, j) || stillReaches(p, j, i) {
				continue
			}
			candidates = append(candidates, pair{i, j})
		}
	}
	if len(candidates) == 0 {
		t.Skip()
	}
	e := candidates[int(pick)%len(candidates)]
	p.Ops[e.a].Channel = p.Ops[e.b].Channel
	if r := check(t, p); !r.OK() {
		t.Fatalf("parallel-channel collapse must be invisible to shallow checks, got: %s", r.Err())
	}
	if r := checkDeep(t, p); !hasClass(r, schedcheck.ClassContention) {
		t.Fatalf("ops %d and %d of concurrent streams share channel %d unordered, not flagged: %s",
			e.a, e.b, p.Ops[e.b].Channel, r.Summary())
	}
}

// fuzzWaitFor makes an earlier-scheduled transfer depend on a later one on
// the same channel. The dependency DAG stays acyclic (the guard rejects
// pairs already ordered forward), so every shallow class passes — but under
// in-order channel service the pair deadlocks, which only the deep wait-for
// pass proves.
func fuzzWaitFor(t *testing.T, p *schedcheck.Program, pick uint16) {
	p = p.Clone()
	type pair struct{ a, b int }
	var candidates []pair
	for i := range p.Ops {
		oi := &p.Ops[i]
		if oi.Marker() {
			continue
		}
		for j := i + 1; j < len(p.Ops); j++ {
			oj := &p.Ops[j]
			if oj.Marker() || oi.Channel != oj.Channel {
				continue
			}
			if stillReaches(p, i, j) {
				continue // dep j->i would close a dependency cycle
			}
			candidates = append(candidates, pair{i, j})
		}
	}
	if len(candidates) == 0 {
		t.Skip()
	}
	e := candidates[int(pick)%len(candidates)]
	deps := depLists(p)
	deps[e.a] = append(deps[e.a], e.b)
	p.SetDeps(deps)
	if r := check(t, p); !r.OK() {
		t.Fatalf("forward dependency must be invisible to shallow checks, got: %s", r.Err())
	}
	if r := checkDeep(t, p); !hasClass(r, schedcheck.ClassWaitFor) {
		t.Fatalf("op %d waits for later op %d on channel %d, deadlock not flagged: %s",
			e.a, e.b, p.Ops[e.a].Channel, r.Summary())
	}
}

func fuzzSwapChunks(t *testing.T, p *schedcheck.Program, pick, pick2 uint16) {
	p = p.Clone()
	var candidates []int
	for i := range p.Ops {
		if !p.Ops[i].Marker() {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) < 2 {
		t.Skip()
	}
	ia, ib := candidates[int(pick)%len(candidates)], candidates[int(pick2)%len(candidates)]
	a, b := &p.Ops[ia], &p.Ops[ib]
	if a.Chunk == b.Chunk {
		t.Skip()
	}
	// Ops with identical source, destination, and semantics are each
	// other's mirror across chunk streams; swapping their chunk fields can
	// yield a relabeling of the original schedule, so only structurally
	// distinct pairs guarantee an observable corruption.
	if a.Src == b.Src && a.Dst == b.Dst && a.Accumulate == b.Accumulate {
		t.Skip()
	}
	a.Chunk, b.Chunk = b.Chunk, a.Chunk
	if r := check(t, p); r.OK() {
		t.Fatalf("swapping chunks of ops %d and %d went unnoticed", ia, ib)
	}
}
