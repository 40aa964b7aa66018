// The external test package breaks the import cycle: collective depends on
// schedcheck (Validate delegates to it), and these tests verify real
// schedules built by collective.
package schedcheck_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/gpusim"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

var allAlgorithms = []collective.Algorithm{
	collective.AlgRing,
	collective.AlgTree,
	collective.AlgTreeOverlap,
	collective.AlgDoubleTree,
	collective.AlgDoubleTreeOverlap,
	collective.AlgHalvingDoubling,
}

func dgx1() *topology.Graph { return topology.DGX1(topology.DefaultDGX1Config()) }

func fullyConnected(p int) *topology.Graph {
	return topology.FullyConnected(p, 25e9, 3*des.Microsecond)
}

func buildProgram(t testing.TB, cfg collective.Config) *schedcheck.Program {
	t.Helper()
	s, err := collective.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Program()
}

func hasClass(r *schedcheck.Report, c schedcheck.Class) bool {
	return len(r.Class(c)) > 0
}

// TestAllAlgorithmsVerify is the positive matrix: every algorithm in the
// zoo, at 4, 8, and 16 nodes, passes all five static check classes. The
// 8-node runs use both the fully connected graph and the DGX-1 hybrid
// mesh-cube, so detour schedules (relay hops through intermediate GPUs) are
// covered.
func TestAllAlgorithmsVerify(t *testing.T) {
	type topo struct {
		name   string
		graph  *topology.Graph
		shared bool
	}
	topos := []topo{
		{"fc4", fullyConnected(4), true},
		{"fc8", fullyConnected(8), true},
		{"fc16", fullyConnected(16), true},
		{"dgx1", dgx1(), false},
	}
	for _, tp := range topos {
		for _, alg := range allAlgorithms {
			t.Run(tp.name+"/"+alg.String(), func(t *testing.T) {
				p := buildProgram(t, collective.Config{
					Graph: tp.graph, Algorithm: alg, Bytes: 1 << 20, Chunks: 8,
					AllowSharedChannels: tp.shared,
				})
				r := checkBoth(t, p)
				if !r.OK() {
					t.Fatalf("%s", r.Err())
				}
				// Order must have been proven whenever the schedule claims it.
				wantOrder := p.InOrder
				gotOrder := false
				for _, c := range r.Checked {
					if c == schedcheck.ClassOrder {
						gotOrder = true
					}
				}
				if gotOrder != wantOrder {
					t.Fatalf("order checked = %v, InOrder = %v", gotOrder, wantOrder)
				}
			})
		}
	}
}

// TestDGX1TreeCoversDetours asserts the matrix above really exercises the
// relay-slot checks: the DGX-1 tree schedule must contain detour hops.
func TestDGX1TreeCoversDetours(t *testing.T) {
	p := buildProgram(t, collective.Config{
		Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8,
	})
	relays := 0
	for i := range p.Ops {
		if p.Ops[i].Dst.IsRelay() {
			relays++
		}
	}
	if relays == 0 {
		t.Fatal("DGX-1 double-tree schedule has no relay hops; detour checks untested")
	}
}

// TestCatchesUnreadRelaySlot makes a detour's last hop read its own GPU's
// buffer instead of the relay slot the previous hop filled, so the slot's
// data is dropped. The pristine program goes through the pool of checkers
// first, so a reader count left behind would hide the violation.
func TestCatchesUnreadRelaySlot(t *testing.T) {
	p := buildProgram(t, collective.Config{
		Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8,
	}).Clone()
	for i := range p.Ops {
		if !p.Ops[i].Src.IsRelay() {
			continue
		}
		if r := checkBoth(t, p); !r.OK() {
			t.Fatal(r.Err())
		}
		slot := p.Ops[i].Src.Relay
		p.Ops[i].Src = schedcheck.NodeBuf(p.Graph.Channel(p.Ops[i].ChannelID()).From)
		r := checkBoth(t, p)
		want := fmt.Sprintf("[link] op %d: relay slot is never read", slot)
		if !strings.Contains(r.Err().Error(), want) {
			t.Fatalf("unread relay slot of op %d not flagged: %v", slot, r.Err())
		}
		assertMatchesReference(t, p, r)
		return
	}
	t.Fatal("no relay reader found")
}

// TestCatchesUnorderedCopies overwrites node 1's chunk from node 0 and from
// node 2 with nothing ordering the two copies. Copies never commute, so the
// pair must be flagged even with no other access to the region, and an op
// reading and writing one region (here, a misrouted transfer) must count as
// one access to it.
func TestCatchesUnorderedCopies(t *testing.T) {
	g := topology.FullyConnected(3, deepBW, deepLat)
	copyTo1 := func(from topology.NodeID) schedcheck.Op {
		return schedcheck.Op{Chunk: 0, Channel: int32(channelBetween(t, g, from, 1)),
			Src: schedcheck.NodeBuf(from), Dst: schedcheck.NodeBuf(1), Final: -1}
	}
	p := &schedcheck.Program{
		Graph: g, Nodes: []topology.NodeID{0, 1, 2}, NumChunks: 1, ChunkBytes: []int64{1000},
		Ops: []schedcheck.Op{copyTo1(0), copyTo1(2), marker(0, 0), marker(0, 1), marker(0, 2)},
	}
	p.SetDeps(make([][]int, len(p.Ops)))
	r := checkBoth(t, p)
	if len(r.Class(schedcheck.ClassHazard)) != 1 {
		t.Fatalf("unordered copies into one region not flagged once: %v", r.Err())
	}
	assertMatchesReference(t, p, r)
	p.Ops[1].Src = schedcheck.NodeBuf(1)
	assertMatchesReference(t, p, checkBoth(t, p))
}

// TestHierarchicalVerifies covers the multi-box cluster schedule in both
// barrier and chained modes.
func TestHierarchicalVerifies(t *testing.T) {
	for _, chained := range []bool{false, true} {
		mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		s, err := collective.BuildHierarchical(collective.HierarchicalConfig{
			Cluster: mn, Bytes: 1 << 20, Chunks: 8, Chained: chained,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := checkBoth(t, s.Program()); !r.OK() {
			t.Fatalf("chained=%v: %s", chained, r.Err())
		}
	}
}

// TestPrimitivesVerify covers the standalone primitives under the generic
// (non-AllReduce) contract.
func TestPrimitivesVerify(t *testing.T) {
	prims := []collective.Primitive{
		collective.PrimBroadcast, collective.PrimReduce,
		collective.PrimReduceScatter, collective.PrimAllGather,
	}
	for _, prim := range prims {
		s, err := collective.BuildPrimitive(collective.PrimitiveConfig{
			Graph: dgx1(), Primitive: prim, Bytes: 1 << 20, Chunks: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r := checkBoth(t, s.Program()); !r.OK() {
			t.Fatalf("%v: %s", prim, r.Err())
		}
	}
}

// treeProgram returns a clone of a tree schedule's program, for the
// negative tests to corrupt.
func treeProgram(t *testing.T) *schedcheck.Program {
	t.Helper()
	return buildProgram(t, collective.Config{
		Graph: dgx1(), Algorithm: collective.AlgTree, Bytes: 1 << 20, Chunks: 4,
	}).Clone()
}

// --- negative tests: one seeded violation per check class ------------------

func TestCatchesCycle(t *testing.T) {
	p := treeProgram(t)
	last := len(p.Ops) - 1
	deps := depLists(p)
	deps[0] = append(deps[0], last)
	deps[last] = append(deps[last], 0)
	p.SetDeps(deps)
	r := checkBoth(t, p)
	if !hasClass(r, schedcheck.ClassStructure) {
		t.Fatalf("cycle not flagged: %s", r.Summary())
	}
	if len(r.Checked) != 1 {
		t.Fatalf("deeper checks ran on a cyclic program: %v", r.Checked)
	}
}

func TestCatchesChunkOutOfRange(t *testing.T) {
	p := treeProgram(t)
	p.Ops[0].Chunk = 99
	if r := checkBoth(t, p); !hasClass(r, schedcheck.ClassStructure) {
		t.Fatalf("out-of-range chunk not flagged: %s", r.Summary())
	}
}

// TestCatchesMalformedDepCSR: the dependency CSR is read in place, so a
// program whose offsets do not cover its ops — the shape a careless edit
// could leave — fails structure at every entry
// point, never panicking, and gpusim refuses it too.
func TestCatchesMalformedDepCSR(t *testing.T) {
	base := treeProgram(t)
	n := len(base.Ops)
	cases := map[string]func(p *schedcheck.Program){
		"no offsets":         func(p *schedcheck.Program) { p.DepOff = nil },
		"one offset short":   func(p *schedcheck.Program) { p.DepOff = p.DepOff[:n] },
		"nonzero first":      func(p *schedcheck.Program) { p.DepOff[0] = 1 },
		"rows overrun deps":  func(p *schedcheck.Program) { p.DepList = p.DepList[:len(p.DepList)-1] },
		"row runs backwards": func(p *schedcheck.Program) { p.DepOff[n/2] = p.DepOff[n/2+1] + 1 },
		"row past the end":   func(p *schedcheck.Program) { p.DepOff[n/2] = int32(len(p.DepList) + 5) },
	}
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	for name, corrupt := range cases {
		p := base.Clone()
		corrupt(p)
		reports := []*schedcheck.Report{
			checkBoth(t, p),
			schedcheck.CheckDeep(p),
			schedcheck.CheckPatch(p, &schedcheck.PatchSpec{Base: base, OldToNew: identity}),
		}
		for _, r := range reports {
			if !hasClass(r, schedcheck.ClassStructure) {
				t.Fatalf("%s: not flagged as structure: %s", name, r.Summary())
			}
		}
		assertMatchesReference(t, p, reports[0])
		if _, err := schedcheck.MakespanBound(p); err == nil {
			t.Fatalf("%s: MakespanBound accepted the program", name)
		}
		inputs := make([][]float32, len(p.Nodes))
		for i := range inputs {
			inputs[i] = make([]float32, 64)
		}
		if _, err := gpusim.Run(p, inputs, gpusim.Config{}); err == nil {
			t.Fatalf("%s: gpusim ran the program", name)
		}
	}
}

// TestCatchesMalformedChunkSizes: a transfer moves its chunk's size, so a
// program whose sizes do not cover its chunks, or hold an empty chunk,
// fails structure at every entry point, never panicking.
func TestCatchesMalformedChunkSizes(t *testing.T) {
	base := treeProgram(t)
	identity := make([]int, len(base.Ops))
	for i := range identity {
		identity[i] = i
	}
	cases := map[string]func(p *schedcheck.Program){
		"no sizes":     func(p *schedcheck.Program) { p.ChunkBytes = nil },
		"one short":    func(p *schedcheck.Program) { p.ChunkBytes = p.ChunkBytes[:p.NumChunks-1] },
		"empty chunk":  func(p *schedcheck.Program) { p.ChunkBytes[1] = 0 },
		"negative one": func(p *schedcheck.Program) { p.ChunkBytes[0] = -5 },
	}
	for name, corrupt := range cases {
		p := base.Clone()
		corrupt(p)
		reports := []*schedcheck.Report{
			checkBoth(t, p),
			schedcheck.CheckDeep(p),
			schedcheck.CheckPatch(p, &schedcheck.PatchSpec{Base: base, OldToNew: identity}),
		}
		for _, r := range reports {
			if !hasClass(r, schedcheck.ClassStructure) {
				t.Fatalf("%s: not flagged as structure: %s", name, r.Summary())
			}
		}
		assertMatchesReference(t, p, reports[0])
		if _, err := schedcheck.MakespanBound(p); err == nil {
			t.Fatalf("%s: MakespanBound accepted the program", name)
		}
	}
}

// TestCatchesDroppedDependency seeds the hazard the old structural
// validator missed: removing the edge that orders a reduction before the
// send reading its result leaves an acyclic, well-indexed schedule with an
// overlap race.
func TestCatchesDroppedDependency(t *testing.T) {
	p := treeProgram(t)
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Marker() || !op.Src.IsNode() {
			continue
		}
		for di, d := range p.Deps(i) {
			w := &p.Ops[d]
			if w.Marker() || !w.Accumulate || w.Dst != op.Src || w.Chunk != op.Chunk {
				continue
			}
			deps := depLists(p)
			deps[i] = append(deps[i][:di], deps[i][di+1:]...)
			p.SetDeps(deps)
			r := checkBoth(t, p)
			if !hasClass(r, schedcheck.ClassHazard) {
				t.Fatalf("dropped dep %d->%d not flagged as hazard: %s", d, i, r.Summary())
			}
			return
		}
	}
	t.Fatal("no reduction->read dependency edge found in tree schedule")
}

func TestCatchesRetargetedChannel(t *testing.T) {
	p := treeProgram(t)
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Marker() || !op.Src.IsNode() {
			continue
		}
		for ch := 0; ch < p.Graph.NumChannels(); ch++ {
			if p.Graph.Channel(topology.ChannelID(ch)).From == op.Src.NodeID() {
				continue
			}
			op.Channel = int32(ch)
			r := checkBoth(t, p)
			if !hasClass(r, schedcheck.ClassLink) {
				t.Fatalf("retargeted channel not flagged: %s", r.Summary())
			}
			return
		}
	}
	t.Fatal("no retarget candidate found")
}

func TestCatchesDoubleReduce(t *testing.T) {
	p := treeProgram(t)
	// Flip a broadcast copy into an accumulation: the destination then sums
	// the fully reduced chunk on top of its own state.
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.Marker() || op.Accumulate || !op.Dst.IsNode() || !op.Src.IsNode() {
			continue
		}
		op.Accumulate = true
		r := checkBoth(t, p)
		if !hasClass(r, schedcheck.ClassConservation) {
			t.Fatalf("double reduce not flagged: %s", r.Summary())
		}
		return
	}
	t.Fatal("no copy transfer found")
}

// TestCatchesMissingFinal removes one final from an in-order schedule, just
// after a larger program went through the pool of checkers on the full path
// (CheckFull, so every one of its finals is left behind): the order proof
// must skip the region with no final, not read a final the previous program
// left behind, and the report must match the references'.
func TestCatchesMissingFinal(t *testing.T) {
	p := treeProgram(t)
	if !p.InOrder {
		t.Fatal("tree schedule does not claim in-order delivery")
	}
	for i := range p.Ops {
		if p.Ops[i].Final < 0 {
			continue
		}
		p.Ops[i].Final = -1
		big := buildProgram(t, collective.Config{
			Graph: fullyConnected(16), Algorithm: collective.AlgTree, Bytes: 1 << 20, Chunks: 64,
			AllowSharedChannels: true,
		})
		schedcheck.CheckFull(big)
		r := checkBoth(t, p)
		if !hasClass(r, schedcheck.ClassConservation) {
			t.Fatalf("missing final not flagged: %s", r.Summary())
		}
		assertMatchesReference(t, p, r)
		return
	}
	t.Fatal("no final op found")
}

// TestCatchesFalseInOrderClaim feeds the verifier a ring schedule that
// falsely claims in-order completion — the property gradqueue would then
// rely on. Ring completions are ordered only by channel occupancy, never by
// dependencies, so the claim must be rejected.
func TestCatchesFalseInOrderClaim(t *testing.T) {
	p := buildProgram(t, collective.Config{
		Graph: dgx1(), Algorithm: collective.AlgRing, Bytes: 1 << 20,
	})
	if p.InOrder {
		t.Fatal("ring schedule claims in-order")
	}
	p.InOrder = true
	p.Streams = 1
	r := checkBoth(t, p)
	if !hasClass(r, schedcheck.ClassOrder) {
		t.Fatalf("false in-order claim not refuted: %s", r.Summary())
	}
}

func TestReportRendering(t *testing.T) {
	p := treeProgram(t)
	r := checkBoth(t, p)
	if !strings.Contains(r.Summary(), "OK") {
		t.Fatalf("clean summary = %q", r.Summary())
	}
	if r.Err() != nil {
		t.Fatalf("clean report returned error: %v", r.Err())
	}
	// Corrupt many finals to exercise the violation-elision path.
	for i := range p.Ops {
		p.Ops[i].Final = -1
	}
	r = checkBoth(t, p)
	if r.Err() == nil {
		t.Fatal("corrupted report returned nil error")
	}
	if len(r.Violations) > 8 && !strings.Contains(r.Err().Error(), "more") {
		t.Fatalf("long violation list not elided: %v", r.Err())
	}
}

// corruptNodeID returns a clone of p with one node-naming slot set to a
// node outside the graph. field%4 picks the slot kind — participant list,
// transfer source, transfer destination or final — and field/4%2 the bound:
// negative when even, at or past NumNodes when odd. pick chooses among the
// slots of that kind. It reports false when p has no slot of the kind.
func corruptNodeID(p *schedcheck.Program, field, pick int) (*schedcheck.Program, bool) {
	p = p.Clone()
	bad := topology.NodeID(-2 - pick%64) // -1 would mean "no final"
	if field/4%2 == 1 {
		bad = topology.NodeID(p.Graph.NumNodes() + pick%64)
	}
	if field%4 == 0 {
		p.Nodes[pick%len(p.Nodes)] = bad
		return p, true
	}
	var slots []*int32
	for i := range p.Ops {
		op := &p.Ops[i]
		switch {
		case field%4 == 1 && op.Src.IsNode():
			slots = append(slots, &op.Src.Node)
		case field%4 == 2 && op.Dst.IsNode():
			slots = append(slots, &op.Dst.Node)
		case field%4 == 3 && op.Final >= 0:
			slots = append(slots, &op.Final)
		}
	}
	if len(slots) == 0 {
		return p, false
	}
	*slots[pick%len(slots)] = int32(bad)
	return p, true
}

// TestNodeIDsOutsideGraph feeds every entry point programs that name a node
// outside the graph, negative or past NumNodes, in each node-naming slot.
// Participants are indexed by node id, so each must come back as a
// structure violation, never a panic.
func TestNodeIDsOutsideGraph(t *testing.T) {
	base := treeProgram(t)
	identity := make([]int, len(base.Ops))
	for i := range identity {
		identity[i] = i
	}
	for field := 0; field < 8; field++ {
		p, ok := corruptNodeID(base, field, 3)
		if !ok {
			t.Fatalf("slot kind %d: no slot to corrupt", field%4)
		}
		reports := []*schedcheck.Report{
			checkBoth(t, p),
			schedcheck.CheckDeep(p),
			schedcheck.CheckPatch(p, &schedcheck.PatchSpec{Base: base, OldToNew: identity}),
		}
		for _, r := range reports {
			if !hasClass(r, schedcheck.ClassStructure) {
				t.Fatalf("field %d: node id outside the graph not flagged as structure: %s", field, r.Summary())
			}
		}
		if _, err := schedcheck.MakespanBound(p); err == nil {
			t.Fatalf("field %d: MakespanBound accepted a node id outside the graph", field)
		}
	}
}

// TestViolationOrderIsDeterministic strips every dependency from a tree
// schedule, leaving many unordered conflicting accesses, and requires the
// same error text on every run: violations follow region order, not Go's
// randomized map order.
func TestViolationOrderIsDeterministic(t *testing.T) {
	p := buildProgram(t, collective.Config{
		Graph: fullyConnected(8), Algorithm: collective.AlgTree, Bytes: 1 << 20, Chunks: 8,
		AllowSharedChannels: true,
	}).Clone()
	p.SetDeps(make([][]int, len(p.Ops)))
	r := checkBoth(t, p)
	if n := len(r.Class(schedcheck.ClassHazard)); n < 9 {
		t.Fatalf("only %d hazard violations; the test needs more than Err prints", n)
	}
	want := r.Err().Error()
	for run := 1; run < 20; run++ {
		if got := schedcheck.Check(p).Err().Error(); got != want {
			t.Fatalf("run %d rendered differently:\n%s\nvs\n%s", run, got, want)
		}
	}
}

// TestCheckConcurrent verifies programs of different sizes from several
// goroutines at once, through the shared pool of checkers: a checker grown
// for one program and reused for a smaller or larger one, a failing one, or
// one that proved a periodic program by its window, must leave nothing
// behind, so every report, Checked classes and
// violations in order, must match the serial one.
func TestCheckConcurrent(t *testing.T) {
	var progs []*schedcheck.Program
	for _, n := range []int{4, 8, 16} {
		progs = append(progs, buildProgram(t, collective.Config{
			Graph: fullyConnected(n), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20,
			Chunks: 2 * n, AllowSharedChannels: true,
		}))
	}
	progs = append(progs, buildProgram(t, collective.Config{
		Graph: topology.Hierarchy(topology.DefaultHierarchyConfig(16)), Algorithm: collective.AlgTree,
		Bytes: 1 << 20, Chunks: 24, AllowSharedChannels: true,
	}))
	broken := progs[1].Clone()
	broken.SetDeps(make([][]int, len(broken.Ops)))
	dropped := progs[3].Clone()
	deps := depLists(dropped)
	for i := range deps {
		if i%5 == 0 && len(deps[i]) > 0 {
			deps[i] = deps[i][1:]
		}
	}
	dropped.SetDeps(deps)
	cyclic := progs[2].Clone()
	deps = depLists(cyclic)
	deps[0] = []int{len(cyclic.Ops) - 1}
	cyclic.SetDeps(deps)
	progs = append(progs, broken, dropped, cyclic)
	checks := []func(*schedcheck.Program) *schedcheck.Report{schedcheck.Check, schedcheck.CheckFull, schedcheck.CheckDeep}
	want := make([][]string, len(checks))
	for c, check := range checks {
		for _, p := range progs {
			want[c] = append(want[c], reportText(check(p)))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 16; round++ {
				i, c := (g+round)%len(progs), round%len(checks)
				if got := reportText(checks[c](progs[i])); got != want[c][i] {
					t.Errorf("program %d: concurrent report differs from the serial one:\n%s\nvs\n%s", i, got, want[c][i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
