package schedcheck_test

import (
	"testing"

	"ccube/internal/collective"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// patchFixture builds a base schedule on its own DGX-1, kills the given used
// channel (by index into usedChannels order), and returns the base program,
// patched program, and the spec relating them, ready for CheckPatch.
type patchFixture struct {
	graph   *topology.Graph
	base    *schedcheck.Program
	patched *schedcheck.Program
	spec    *schedcheck.PatchSpec
	rep     *collective.PatchReport
}

func buildPatchFixture(t *testing.T, pickChannel func(*topology.Graph, []topology.ChannelID) topology.ChannelID) *patchFixture {
	t.Helper()
	g := dgx1()
	s, err := collective.Build(collective.Config{Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 18, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	base := s.Program()
	used := make(map[topology.ChannelID]bool)
	var usedList []topology.ChannelID
	for i := range base.Ops {
		if ch := base.Ops[i].ChannelID(); !base.Ops[i].Marker() && !used[ch] {
			used[ch] = true
			usedList = append(usedList, ch)
		}
	}
	dead := pickChannel(g, usedList)
	if dead < 0 {
		t.Skip("no channel matching the fixture's requirement")
	}
	g.KillChannel(dead)
	patched, rep, err := collective.RepairSchedule(s, []topology.ChannelID{dead}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &patchFixture{
		graph:   g,
		base:    base,
		patched: patched.Program(),
		spec:    &schedcheck.PatchSpec{Base: base, OldToNew: rep.OldToNew, Touched: rep.Touched},
		rep:     rep,
	}
}

func anyUsed(_ *topology.Graph, used []topology.ChannelID) topology.ChannelID {
	return used[0]
}

// soleLink picks a used channel with no parallel sibling, so the repair must
// splice a detour (new relay ops) rather than swap channels.
func soleLink(g *topology.Graph, used []topology.ChannelID) topology.ChannelID {
	for _, cid := range used {
		ch := g.Channel(cid)
		if len(g.ChannelsBetween(ch.From, ch.To)) == 1 {
			return cid
		}
	}
	return -1
}

// A real incremental repair passes CheckPatch, and the delta mode runs
// exactly the structure, patch, link and hazard classes.
func TestCheckPatchAcceptsRealRepair(t *testing.T) {
	fx := buildPatchFixture(t, anyUsed)
	r := schedcheck.CheckPatch(fx.patched, fx.spec)
	if !r.OK() {
		t.Fatalf("%s", r.Err())
	}
	want := []schedcheck.Class{schedcheck.ClassStructure, schedcheck.ClassPatch, schedcheck.ClassLink, schedcheck.ClassHazard}
	if len(r.Checked) != len(want) {
		t.Fatalf("checked %v, want %v", r.Checked, want)
	}
	for i, c := range want {
		if r.Checked[i] != c {
			t.Fatalf("checked %v, want %v", r.Checked, want)
		}
	}
}

// Broken mappings fail the patch class before any delta pass runs.
func TestCheckPatchMappingObligations(t *testing.T) {
	fx := buildPatchFixture(t, anyUsed)

	check := func(name string, spec *schedcheck.PatchSpec) {
		t.Helper()
		r := schedcheck.CheckPatch(fx.patched, spec)
		if r.OK() || !hasClass(r, schedcheck.ClassPatch) {
			t.Fatalf("%s: accepted (violations %v)", name, r.Violations)
		}
	}
	check("nil base", &schedcheck.PatchSpec{OldToNew: fx.spec.OldToNew, Touched: fx.spec.Touched})
	check("short mapping", &schedcheck.PatchSpec{Base: fx.base, OldToNew: fx.spec.OldToNew[:1], Touched: fx.spec.Touched})

	bad := append([]int(nil), fx.spec.OldToNew...)
	bad[0] = bad[1] // two base ops map to one image
	check("non-injective mapping", &schedcheck.PatchSpec{Base: fx.base, OldToNew: bad, Touched: fx.spec.Touched})

	oob := append([]int(nil), fx.spec.OldToNew...)
	oob[0] = len(fx.patched.Ops)
	check("out-of-range image", &schedcheck.PatchSpec{Base: fx.base, OldToNew: oob, Touched: fx.spec.Touched})

	check("out-of-range touched", &schedcheck.PatchSpec{Base: fx.base, OldToNew: fx.spec.OldToNew,
		Touched: []int{len(fx.patched.Ops)}})

	otherBase := fx.base.Clone()
	otherBase.Graph = dgx1() // different graph object
	check("different topology", &schedcheck.PatchSpec{Base: otherBase, OldToNew: fx.spec.OldToNew, Touched: fx.spec.Touched})

	contract := fx.base.Clone()
	contract.NumChunks++
	check("contract change", &schedcheck.PatchSpec{Base: contract, OldToNew: fx.spec.OldToNew, Touched: fx.spec.Touched})
}

// Tampering with the patched program beyond what the spec declares is
// rejected: silent reroutes, dropped dependencies, flipped accumulate flags
// and retargeted destinations all break the proof-transfer argument.
func TestCheckPatchRejectsTampering(t *testing.T) {
	fx := buildPatchFixture(t, anyUsed)
	touched := make(map[int]bool)
	for _, id := range fx.spec.Touched {
		touched[id] = true
	}
	// An untouched non-marker transfer with at least one dependency.
	victim := -1
	for j := range fx.patched.Ops {
		if !fx.patched.Ops[j].Marker() && !touched[j] && len(fx.patched.Deps(j)) > 0 {
			victim = j
			break
		}
	}
	if victim < 0 {
		t.Fatal("no untouched transfer with dependencies")
	}

	// Each mutation reports whether it could be applied; inapplicable ones
	// are skipped individually without aborting the other cases.
	expect := func(name string, mutate func(p *schedcheck.Program) bool) {
		t.Helper()
		p := fx.patched.Clone()
		if !mutate(p) {
			t.Logf("%s: not applicable on this fixture", name)
			return
		}
		r := schedcheck.CheckPatch(p, fx.spec)
		if r.OK() || !hasClass(r, schedcheck.ClassPatch) {
			t.Fatalf("%s: accepted (violations %v, want class patch)", name, r.Violations)
		}
	}
	expect("untouched channel reroute", func(p *schedcheck.Program) bool {
		// Any untouched transfer with a live parallel sibling works.
		for j := range p.Ops {
			op := &p.Ops[j]
			if op.Marker() || touched[j] {
				continue
			}
			ch := p.Graph.Channel(op.ChannelID())
			for _, sib := range p.Graph.ChannelsBetween(ch.From, ch.To) {
				if sib != op.ChannelID() && !p.Graph.Channel(sib).Down() {
					op.Channel = int32(sib)
					return true
				}
			}
		}
		return false
	})
	expect("untouched dropped dependency", func(p *schedcheck.Program) bool {
		deps := depLists(p)
		deps[victim] = deps[victim][:len(deps[victim])-1]
		p.SetDeps(deps)
		return true
	})
	expect("accumulate flip", func(p *schedcheck.Program) bool {
		p.Ops[victim].Accumulate = !p.Ops[victim].Accumulate
		return true
	})
	expect("retargeted destination", func(p *schedcheck.Program) bool {
		for j := range p.Ops {
			if !p.Ops[j].Marker() && !touched[j] && p.Ops[j].Dst.IsNode() {
				p.Ops[j].Dst = schedcheck.NodeBuf(p.Nodes[(int(p.Ops[j].Dst.Node)+1)%len(p.Nodes)])
				return true
			}
		}
		return false
	})
	expect("bytes change", func(p *schedcheck.Program) bool {
		p.ChunkBytes[p.Ops[victim].Chunk]++
		return true
	})
	expect("touched op dropped a mapped dependency", func(p *schedcheck.Program) bool {
		deps := depLists(p)
		for _, j := range fx.spec.Touched {
			if len(deps[j]) > 0 {
				deps[j] = deps[j][:len(deps[j])-1]
				p.SetDeps(deps)
				return true
			}
		}
		return false
	})
}

// A spliced detour introduces new relay ops; those may never write node
// buffers or mark finals, and the touched reader must still depend on the
// slot writer — the delta hazard pass, not the full closure pass, catches a
// dropped relay edge.
func TestCheckPatchDetourObligations(t *testing.T) {
	fx := buildPatchFixture(t, soleLink)
	if fx.rep.AddedHops == 0 {
		t.Skip("repair found a direct replacement; no detour to test")
	}
	// Identify new ops: patched ids that are not the image of any base op.
	isImage := make([]bool, len(fx.patched.Ops))
	for _, j := range fx.spec.OldToNew {
		isImage[j] = true
	}
	newOp := -1
	for j := range fx.patched.Ops {
		if !isImage[j] {
			newOp = j
			break
		}
	}
	if newOp < 0 {
		t.Fatal("AddedHops > 0 but every patched op is a base image")
	}
	if !fx.patched.Ops[newOp].Dst.IsRelay() {
		t.Fatalf("new op %d does not write a relay slot", newOp)
	}

	// classes lists the acceptable rejection classes: some mutations break a
	// structural invariant (checked first, short-circuiting the patch class)
	// as well as the patch obligation itself — any listed rejection is sound.
	expect := func(name string, mutate func(p *schedcheck.Program), classes ...schedcheck.Class) {
		t.Helper()
		p := fx.patched.Clone()
		mutate(p)
		r := schedcheck.CheckPatch(p, fx.spec)
		if r.OK() {
			t.Fatalf("%s: accepted", name)
		}
		for _, c := range classes {
			if hasClass(r, c) {
				return
			}
		}
		t.Fatalf("%s: rejected with %v, want one of %v", name, r.Violations, classes)
	}
	expect("new op writes a node buffer", func(p *schedcheck.Program) {
		p.Ops[newOp].Dst = schedcheck.NodeBuf(p.Nodes[0])
	}, schedcheck.ClassPatch, schedcheck.ClassStructure)
	expect("new op marks a final", func(p *schedcheck.Program) {
		p.Ops[newOp].Final = int32(p.Nodes[0])
	}, schedcheck.ClassPatch, schedcheck.ClassStructure)
	expect("relay reader drops its edge", func(p *schedcheck.Program) {
		// The touched reader of newOp's relay slot loses exactly that edge:
		// still a superset of its mapped base deps, so only the delta hazard
		// pass can notice.
		all := depLists(p)
		for j := range p.Ops {
			if int(p.Ops[j].Src.Relay) != newOp {
				continue
			}
			deps := all[j][:0]
			for _, d := range all[j] {
				if d != newOp {
					deps = append(deps, d)
				}
			}
			all[j] = deps
			p.SetDeps(all)
			return
		}
		t.Fatal("no reader of the new relay slot")
	}, schedcheck.ClassHazard)
}

// The delta link pass still sees channel health: a touched op rerouted onto
// a channel that has itself died fails the link class.
func TestCheckPatchTouchedOpOnDeadChannel(t *testing.T) {
	fx := buildPatchFixture(t, anyUsed)
	if len(fx.spec.Touched) == 0 {
		t.Fatal("repair touched nothing")
	}
	target := -1
	for _, j := range fx.spec.Touched {
		if !fx.patched.Ops[j].Marker() {
			target = j
			break
		}
	}
	if target < 0 {
		t.Skip("no touched transfer")
	}
	fx.graph.KillChannel(fx.patched.Ops[target].ChannelID())
	r := schedcheck.CheckPatch(fx.patched, fx.spec)
	if r.OK() || !hasClass(r, schedcheck.ClassLink) {
		t.Fatalf("dead rerouted channel accepted (violations %v)", r.Violations)
	}
}
