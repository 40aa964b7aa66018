package schedcheck_test

import (
	"strings"
	"testing"

	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// Hand-built programs on a two-GPU fully connected graph (1 GB/s, 2 us
// latency: a 1000-byte transfer costs exactly 3 us) keep the deep-pass
// arithmetic exact and the negative cases minimal: each failing program is
// clean under every shallow class, so the test proves the new passes see
// something the original five cannot.

const (
	deepBW  = 1e9 // bytes/s
	deepLat = 2 * des.Microsecond
)

func deepGraph() *topology.Graph { return topology.FullyConnected(2, deepBW, deepLat) }

func channelBetween(t *testing.T, g *topology.Graph, from, to topology.NodeID) topology.ChannelID {
	t.Helper()
	for ch := 0; ch < g.NumChannels(); ch++ {
		if c := g.Channel(topology.ChannelID(ch)); c.From == from && c.To == to {
			return topology.ChannelID(ch)
		}
	}
	t.Fatalf("no channel %d->%d", from, to)
	return -1
}

// marker returns a readiness marker announcing chunk c at node n.
func marker(id, c int, n topology.NodeID) schedcheck.Op {
	return schedcheck.Op{
		ID: id, Chunk: c, Channel: -1,
		Src: schedcheck.NoBuf(), Dst: schedcheck.NoBuf(), Final: n,
	}
}

// twoStreamProgram sends chunk 0 and chunk 1 from node 0 to node 1 over the
// same physical channel. With Streams = 2 the chunks belong to concurrent
// streams, so leaving the transfers unordered is exactly the shared-channel
// overlap the contention pass must reject.
func twoStreamProgram(t *testing.T, ordered bool, streams int) *schedcheck.Program {
	t.Helper()
	g := deepGraph()
	up := channelBetween(t, g, 0, 1)
	ops := []schedcheck.Op{
		{ID: 0, Chunk: 0, Bytes: 1000, Channel: up,
			Src: schedcheck.NodeBuf(0), Dst: schedcheck.NodeBuf(1), Accumulate: true, Final: 1},
		{ID: 1, Chunk: 1, Bytes: 1000, Channel: up,
			Src: schedcheck.NodeBuf(0), Dst: schedcheck.NodeBuf(1), Accumulate: true, Final: 1},
		marker(2, 0, 0),
		marker(3, 1, 0),
	}
	if ordered {
		ops[1].Deps = []int{0}
	}
	return &schedcheck.Program{
		Graph: g, Nodes: []topology.NodeID{0, 1}, NumChunks: 2,
		Streams: streams, Ops: ops,
	}
}

func TestContentionFlagsUnorderedCrossStreamSharing(t *testing.T) {
	p := twoStreamProgram(t, false, 2)
	if r := schedcheck.Check(p); !r.OK() {
		t.Fatalf("program must be clean under the shallow classes: %s", r.Err())
	}
	r := schedcheck.CheckDeep(p)
	if !hasClass(r, schedcheck.ClassContention) {
		t.Fatalf("unordered cross-stream channel sharing went unnoticed: %s", r.Summary())
	}
	if hasClass(r, schedcheck.ClassWaitFor) {
		t.Fatalf("spurious wait-for violation: %s", r.Err())
	}
	v := r.Class(schedcheck.ClassContention)[0]
	if !strings.Contains(v.Msg, "disjoint channels") {
		t.Errorf("violation does not explain the disjoint-channel requirement: %s", v.Msg)
	}
}

func TestContentionAcceptsOrderedSharing(t *testing.T) {
	// A dependency between the two transfers serializes them explicitly: the
	// channel is shared but never contended.
	p := twoStreamProgram(t, true, 2)
	if r := schedcheck.CheckDeep(p); !r.OK() {
		t.Fatalf("dependency-ordered channel sharing is not contention: %s", r.Err())
	}
}

func TestContentionIsVacuousForSingleStream(t *testing.T) {
	// The same unordered sharing with Streams = 1 is ring-style pipelining:
	// the schedule claims no cross-stream overlap, so there is nothing to
	// refute. The cost of the busy channel shows up in MakespanBound instead.
	p := twoStreamProgram(t, false, 1)
	if r := schedcheck.CheckDeep(p); !r.OK() {
		t.Fatalf("single-stream pipelining flagged as contention: %s", r.Err())
	}
}

// waitForProgram puts two transfers on one channel where the earlier-
// scheduled one depends on the later one. The dependency graph alone is
// acyclic — shallow checks pass — but under in-order channel service op 0
// blocks the channel waiting for op 1, which waits for the channel: a
// deadlock only the combined wait-for graph reveals.
func waitForProgram(t *testing.T) *schedcheck.Program {
	t.Helper()
	g := deepGraph()
	up := channelBetween(t, g, 0, 1)
	ops := []schedcheck.Op{
		{ID: 0, Chunk: 0, Bytes: 1000, Channel: up, Deps: []int{1},
			Src: schedcheck.NodeBuf(0), Dst: schedcheck.NodeBuf(1), Accumulate: true, Final: 1},
		{ID: 1, Chunk: 1, Bytes: 1000, Channel: up,
			Src: schedcheck.NodeBuf(0), Dst: schedcheck.NodeBuf(1), Accumulate: true, Final: 1},
		marker(2, 0, 0),
		marker(3, 1, 0),
	}
	return &schedcheck.Program{
		Graph: g, Nodes: []topology.NodeID{0, 1}, NumChunks: 2,
		Streams: 1, Ops: ops,
	}
}

func TestWaitForFlagsChannelOrderDeadlock(t *testing.T) {
	p := waitForProgram(t)
	if r := schedcheck.Check(p); !r.OK() {
		t.Fatalf("program must be clean under the shallow classes: %s", r.Err())
	}
	r := schedcheck.CheckDeep(p)
	if !hasClass(r, schedcheck.ClassWaitFor) {
		t.Fatalf("dependency+channel-order deadlock went unnoticed: %s", r.Summary())
	}
	v := r.Class(schedcheck.ClassWaitFor)[0]
	if !strings.Contains(v.Msg, "wait-for cycle") || !strings.Contains(v.Msg, "#0(reduce c0 0->1)") {
		t.Errorf("violation does not show the deadlock cycle: %s", v.Msg)
	}
}

func TestDeepClassesRunOnlyUnderCheckDeep(t *testing.T) {
	checked := func(r *schedcheck.Report, c schedcheck.Class) bool {
		for _, got := range r.Checked {
			if got == c {
				return true
			}
		}
		return false
	}
	p := twoStreamProgram(t, false, 2)
	shallow, deep := schedcheck.Check(p), schedcheck.CheckDeep(p)
	for _, c := range []schedcheck.Class{schedcheck.ClassContention, schedcheck.ClassWaitFor} {
		if checked(shallow, c) {
			t.Errorf("Check ran deep class %s", c)
		}
		if !checked(deep, c) {
			t.Errorf("CheckDeep skipped class %s", c)
		}
	}
}

// --- cost-model queries ------------------------------------------------------

func TestBoundsLoadDominated(t *testing.T) {
	// Two parallel 3 us transfers on one channel: the dependency critical
	// path is one transfer, but the channel must serve both.
	p := twoStreamProgram(t, false, 1)
	g := p.Graph
	up := channelBetween(t, g, 0, 1)

	cp, err := schedcheck.CriticalPath(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * des.Microsecond; cp != want {
		t.Errorf("CriticalPath = %s, want %s", cp, want)
	}
	loads, err := schedcheck.ChannelLoads(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * des.Microsecond; loads[up] != want {
		t.Errorf("load on %d = %s, want %s", up, loads[up], want)
	}
	bound, err := schedcheck.MakespanBound(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * des.Microsecond; bound != want {
		t.Errorf("MakespanBound = %s, want %s (busiest channel dominates)", bound, want)
	}
}

// chainProgram reduces node 0's chunk into node 1 and copies the sum back:
// two dependent 3 us transfers on two different channels.
func chainProgram(t *testing.T) *schedcheck.Program {
	t.Helper()
	g := deepGraph()
	up := channelBetween(t, g, 0, 1)
	down := channelBetween(t, g, 1, 0)
	return &schedcheck.Program{
		Graph: g, Nodes: []topology.NodeID{0, 1}, NumChunks: 1, AllReduce: true,
		Ops: []schedcheck.Op{
			{ID: 0, Chunk: 0, Bytes: 1000, Channel: up,
				Src: schedcheck.NodeBuf(0), Dst: schedcheck.NodeBuf(1), Accumulate: true, Final: 1},
			{ID: 1, Chunk: 0, Bytes: 1000, Channel: down, Deps: []int{0},
				Src: schedcheck.NodeBuf(1), Dst: schedcheck.NodeBuf(0), Final: 0},
		},
	}
}

func TestBoundsPathDominated(t *testing.T) {
	p := chainProgram(t)
	if r := schedcheck.CheckDeep(p); !r.OK() {
		t.Fatalf("chain program must verify: %s", r.Err())
	}
	bound, err := schedcheck.MakespanBound(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * des.Microsecond; bound != want {
		t.Errorf("MakespanBound = %s, want %s (critical path dominates)", bound, want)
	}
}

func TestBoundsHonorNoAlpha(t *testing.T) {
	// A continuation transfer pays only the bandwidth term: the chain's
	// second hop drops its 2 us latency.
	p := chainProgram(t)
	p.Ops[1].NoAlpha = true
	cp, err := schedcheck.CriticalPath(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * des.Microsecond; cp != want {
		t.Errorf("CriticalPath = %s, want %s (3us + alpha-free 1us)", cp, want)
	}
}

func TestBoundsRejectInvalidProgram(t *testing.T) {
	p := chainProgram(t)
	p.Ops[0].ID = 5 // ids must equal positions
	if _, err := schedcheck.CriticalPath(p); err == nil {
		t.Error("CriticalPath accepted a structurally invalid program")
	}
	if _, err := schedcheck.ChannelLoads(p); err == nil {
		t.Error("ChannelLoads accepted a structurally invalid program")
	}
	if _, err := schedcheck.MakespanBound(p); err == nil {
		t.Error("MakespanBound accepted a structurally invalid program")
	}
}
