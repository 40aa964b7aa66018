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
				r := schedcheck.Check(p)
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
		if r := schedcheck.Check(s.Program()); !r.OK() {
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
		if r := schedcheck.Check(s.Program()); !r.OK() {
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
	p.Ops[0].Deps = append(append([]int(nil), p.Ops[0].Deps...), last)
	p.Ops[last].Deps = append(append([]int(nil), p.Ops[last].Deps...), 0)
	r := schedcheck.Check(p)
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
	if r := schedcheck.Check(p); !hasClass(r, schedcheck.ClassStructure) {
		t.Fatalf("out-of-range chunk not flagged: %s", r.Summary())
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
		for di, d := range op.Deps {
			w := &p.Ops[d]
			if w.Marker() || !w.Accumulate || w.Dst != op.Src || w.Chunk != op.Chunk {
				continue
			}
			op.Deps = append(append([]int(nil), op.Deps[:di]...), op.Deps[di+1:]...)
			r := schedcheck.Check(p)
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
			if p.Graph.Channel(topology.ChannelID(ch)).From == op.Src.Node {
				continue
			}
			op.Channel = topology.ChannelID(ch)
			r := schedcheck.Check(p)
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
		r := schedcheck.Check(p)
		if !hasClass(r, schedcheck.ClassConservation) {
			t.Fatalf("double reduce not flagged: %s", r.Summary())
		}
		return
	}
	t.Fatal("no copy transfer found")
}

func TestCatchesMissingFinal(t *testing.T) {
	p := treeProgram(t)
	for i := range p.Ops {
		if p.Ops[i].Final < 0 {
			continue
		}
		p.Ops[i].Final = -1
		r := schedcheck.Check(p)
		if !hasClass(r, schedcheck.ClassConservation) {
			t.Fatalf("missing final not flagged: %s", r.Summary())
		}
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
	r := schedcheck.Check(p)
	if !hasClass(r, schedcheck.ClassOrder) {
		t.Fatalf("false in-order claim not refuted: %s", r.Summary())
	}
}

func TestReportRendering(t *testing.T) {
	p := treeProgram(t)
	r := schedcheck.Check(p)
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
	r = schedcheck.Check(p)
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
	var slots []*topology.NodeID
	switch field % 4 {
	case 0:
		for i := range p.Nodes {
			slots = append(slots, &p.Nodes[i])
		}
	case 1:
		for i := range p.Ops {
			if p.Ops[i].Src.IsNode() {
				slots = append(slots, &p.Ops[i].Src.Node)
			}
		}
	case 2:
		for i := range p.Ops {
			if p.Ops[i].Dst.IsNode() {
				slots = append(slots, &p.Ops[i].Dst.Node)
			}
		}
	case 3:
		for i := range p.Ops {
			if p.Ops[i].Final >= 0 {
				slots = append(slots, &p.Ops[i].Final)
			}
		}
	}
	if len(slots) == 0 {
		return p, false
	}
	*slots[pick%len(slots)] = bad
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
			schedcheck.Check(p),
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
	for i := range p.Ops {
		p.Ops[i].Deps = nil
	}
	r := schedcheck.Check(p)
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
// goroutines at once: checks share pooled closure buffers, so every report
// must match the serial one.
func TestCheckConcurrent(t *testing.T) {
	var progs []*schedcheck.Program
	for _, n := range []int{4, 8, 16} {
		progs = append(progs, buildProgram(t, collective.Config{
			Graph: fullyConnected(n), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20,
			Chunks: 2 * n, AllowSharedChannels: true,
		}))
	}
	broken := progs[1].Clone()
	for i := range broken.Ops {
		broken.Ops[i].Deps = nil
	}
	progs = append(progs, broken)
	want := make([]string, len(progs))
	for i, p := range progs {
		want[i] = fmt.Sprint(schedcheck.CheckDeep(p).Violations)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				i := (g + round) % len(progs)
				if got := fmt.Sprint(schedcheck.CheckDeep(progs[i]).Violations); got != want[i] {
					t.Errorf("program %d: concurrent report differs from the serial one", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
