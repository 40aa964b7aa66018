package schedcheck

import (
	"slices"
	"sort"

	"ccube/internal/topology"
)

// PatchSpec relates a patched program to the verified base it was derived
// from. OldToNew maps every base op id to its id in the patched program
// (repair renumbers but never deletes), and Touched lists the patched-program
// ids whose fields were modified beyond renumbering. Ops of the patched
// program that are not the image of any base op (freshly spliced detour
// hops) are implicitly touched.
type PatchSpec struct {
	Base     *Program
	OldToNew []int
	Touched  []int
}

// CheckPatch verifies an incrementally repaired program against its verified
// base in time proportional to the patch, not the schedule. It is the delta
// mode of Check: instead of re-proving every class from scratch it proves a
// set of patch obligations under which the base program's proofs transfer to
// the patched program:
//
//	structure — re-run in full on the patched program (it is a single O(ops)
//	            sweep plus a topological sort; there is nothing to save).
//	patch     — the mapping obligations. The chunk sizes must be the
//	            base's and every base op must have an image; untouched
//	            images must be field-identical modulo renumbering
//	            with exactly the mapped dependencies; touched images must
//	            preserve the data-flow contract (chunk, destination,
//	            accumulate flag, final marker, and the node origin of the
//	            data reached through relay chains) and may only ADD
//	            dependencies; markers are immutable; new ops must be pure
//	            relay-forwarding hops (no node-buffer writes, no finals).
//	            Because a patch never removes a dependency edge and never
//	            removes, retargets, or reorders a node-buffer write, the
//	            base's hazard proofs for untouched pairs, its conservation
//	            end-state, and its in-order proof all carry over verbatim —
//	            reachability and forcedAfter are monotone in the edge set.
//	link      — re-run for touched ops only (untouched ops kept their
//	            channel, and CheckPatch deliberately does NOT re-check them
//	            against channel health: in live adaptation the already-
//	            executed prefix may legitimately sit on a channel that has
//	            since died).
//	hazard    — re-proved for every pair involving a touched op, by BFS from
//	            the touched op over the patched dependency graph; pairs of
//	            untouched ops are covered by the transfer argument above.
//
// CheckPatch assumes the base program itself passed Check; it proves nothing
// about the base. The test suite keeps the full Check as the oracle: every
// CheckPatch-accepted patch must also pass Check once dead channels are
// taken out of the picture.
func CheckPatch(patched *Program, spec *PatchSpec) *Report {
	ck := getChecker(patched)
	defer ck.release()
	ck.structure(false)
	ck.r.Checked = append(ck.r.Checked, ClassStructure)
	if !ck.r.OK() {
		return ck.r
	}

	touched, ok := ck.patchMapping(spec)
	ck.r.Checked = append(ck.r.Checked, ClassPatch)
	if !ok {
		return ck.r
	}

	for _, id := range touched {
		ck.linkOp(id)
		if ck.kind[id] == kRelay && ck.nread[id] == 0 {
			ck.linkV = append(ck.linkV, ck.neverRead(id))
		}
	}
	ck.r.Violations = append(ck.r.Violations, ck.linkV...)
	ck.r.Checked = append(ck.r.Checked, ClassLink)

	ck.deltaHazards(touched)
	ck.r.Checked = append(ck.r.Checked, ClassHazard)
	return ck.r
}

// patchMapping verifies the PatchSpec obligations and returns the sorted
// list of touched patched-op ids (explicit plus implicit new ops). A false
// second return means the mapping itself is broken and the delta passes
// cannot run.
func (ck *checker) patchMapping(spec *PatchSpec) ([]int, bool) {
	p := ck.p
	if spec == nil || spec.Base == nil {
		ck.fail(ClassPatch, -1, "patch has no base program")
		return nil, false
	}
	base := spec.Base
	if len(spec.OldToNew) != len(base.Ops) {
		ck.fail(ClassPatch, -1, "mapping covers %d of %d base ops (a patch never deletes ops)",
			len(spec.OldToNew), len(base.Ops))
		return nil, false
	}
	if base.Graph != p.Graph {
		ck.fail(ClassPatch, -1, "patched program targets a different topology graph")
		return nil, false
	}
	if len(base.Nodes) != len(p.Nodes) {
		ck.fail(ClassPatch, -1, "participant set changed: %d -> %d", len(base.Nodes), len(p.Nodes))
		return nil, false
	}
	for i := range base.Nodes {
		if base.Nodes[i] != p.Nodes[i] {
			ck.fail(ClassPatch, -1, "participant %d changed: node %d -> %d", i, base.Nodes[i], p.Nodes[i])
			return nil, false
		}
	}
	if base.NumChunks != p.NumChunks || !slices.Equal(base.ChunkBytes, p.ChunkBytes) ||
		base.InOrder != p.InOrder || base.Streams != p.Streams || base.AllReduce != p.AllReduce {
		ck.fail(ClassPatch, -1, "schedule contract changed (chunks/bytes/in-order/streams/allreduce)")
		return nil, false
	}

	n := len(p.Ops)
	image := make([]int, n) // patched id -> base id, or -1
	for j := range image {
		image[j] = -1
	}
	for i, j := range spec.OldToNew {
		if j < 0 || j >= n {
			ck.fail(ClassPatch, -1, "base op %d maps to out-of-range id %d", i, j)
			return nil, false
		}
		if image[j] >= 0 {
			ck.fail(ClassPatch, j, "mapping is not injective: base ops %d and %d both map here", image[j], i)
			return nil, false
		}
		image[j] = i
	}

	isTouched := make([]bool, n)
	for _, id := range spec.Touched {
		if id < 0 || id >= n {
			ck.fail(ClassPatch, -1, "touched id %d out of range", id)
			return nil, false
		}
		isTouched[id] = true
	}
	for j := 0; j < n; j++ {
		if image[j] < 0 {
			isTouched[j] = true // new op
		}
	}

	for j := 0; j < n; j++ {
		i := image[j]
		op := &p.Ops[j]
		if i < 0 {
			// New ops must be pure relay forwarding: they may read (node
			// buffers or earlier relays) but write only their own relay slot
			// and never mark readiness, so the node-buffer write multiset —
			// and with it the base conservation proof — is untouched.
			if op.Marker() {
				ck.fail(ClassPatch, j, "patch introduces a new marker")
			} else if !op.Dst.IsRelay() {
				ck.fail(ClassPatch, j, "new op writes a node buffer; patches may only add relay hops")
			}
			if op.Final >= 0 {
				ck.fail(ClassPatch, j, "new op marks chunk %d ready at node %d", op.Chunk, op.Final)
			}
			continue
		}
		bop := &base.Ops[i]
		if bop.Marker() != op.Marker() {
			ck.fail(ClassPatch, j, "op %d changed marker-ness", i)
			continue
		}
		// Invariants for every surviving op, touched or not: the data-flow
		// contract. Only Channel and Src (and Deps, additively) may change,
		// and only on touched ops.
		if bop.Chunk != op.Chunk || bop.Accumulate != op.Accumulate ||
			bop.Final != op.Final || bop.NoAlpha != op.NoAlpha {
			ck.fail(ClassPatch, j, "base op %d changed chunk/accumulate/final", i)
		}
		if !bufEqualMapped(bop.Dst, op.Dst, spec.OldToNew) {
			ck.fail(ClassPatch, j, "base op %d changed its destination buffer", i)
		}
		mapped := mapDeps(base.Deps(i), spec.OldToNew)
		if op.Marker() || !isTouched[j] {
			// Untouched ops (and all markers — repair never edits a marker)
			// must be bit-identical modulo renumbering.
			if !op.Marker() {
				if bop.Channel != op.Channel {
					ck.fail(ClassPatch, j, "untouched op %d changed channel %d -> %d (not listed as touched)",
						i, bop.Channel, op.Channel)
				}
				if !bufEqualMapped(bop.Src, op.Src, spec.OldToNew) {
					ck.fail(ClassPatch, j, "untouched op %d changed its source buffer", i)
				}
			}
			if !depsEqual(mapped, p.Deps(j)) {
				ck.fail(ClassPatch, j, "untouched op %d changed dependencies", i)
			}
			continue
		}
		// Touched ops may reroute (Channel, Src) and gain dependencies, but
		// never lose one: removing an ordering edge could invalidate any
		// hazard/order proof that relied on it, anywhere in the program.
		if !depsSuperset(p.Deps(j), mapped) {
			ck.fail(ClassPatch, j, "touched op %d dropped a dependency; patches may only add ordering", i)
		}
		// The data's node origin must survive the reroute: a detour moves the
		// same bytes through different links, it never re-sources them.
		if borig, bok := originNode(base, i); bok {
			if porig, pok := originNode(p, j); !pok || porig != borig {
				ck.fail(ClassPatch, j, "touched op %d changed data origin (node %d)", i, borig)
			}
		}
	}
	if !ck.r.OK() {
		return nil, false
	}

	touched := make([]int, 0, len(spec.Touched))
	for j := 0; j < n; j++ {
		if isTouched[j] {
			touched = append(touched, j)
		}
	}
	sort.Ints(touched)
	return touched, true
}

// originNode resolves an op's source through relay chains to the node whose
// buffer the data originally left. The bool is false on a broken chain
// (already a structure violation).
func originNode(p *Program, id int) (int, bool) {
	for hops := 0; hops <= len(p.Ops); hops++ {
		op := &p.Ops[id]
		if op.Src.IsNode() {
			return int(op.Src.Node), true
		}
		if !op.Src.IsRelay() {
			return -1, false
		}
		r := int(op.Src.Relay)
		if r >= len(p.Ops) {
			return -1, false
		}
		id = r
	}
	return -1, false
}

func bufEqualMapped(b Buf, pb Buf, oldToNew []int) bool {
	if b.IsRelay() {
		if int(b.Relay) >= len(oldToNew) {
			return false
		}
		return pb.IsRelay() && int(pb.Relay) == oldToNew[b.Relay]
	}
	return b == pb
}

func mapDeps(deps []int32, oldToNew []int) []int {
	out := make([]int, len(deps))
	for i, d := range deps {
		out[i] = oldToNew[d]
	}
	sort.Ints(out)
	return out
}

func depsEqual(a []int, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	bs := make([]int, len(b))
	for i, d := range b {
		bs[i] = int(d)
	}
	sort.Ints(bs)
	for i := range a {
		if a[i] != bs[i] {
			return false
		}
	}
	return true
}

func depsSuperset(have []int32, want []int) bool {
	set := make(map[int]bool, len(have))
	for _, d := range have {
		set[int(d)] = true
	}
	for _, d := range want {
		if !set[d] {
			return false
		}
	}
	return true
}

// deltaHazards re-proves race freedom for every conflicting pair that
// involves a touched op, using per-op BFS over the patched dependency graph
// instead of the full reachability closure. Pairs of untouched ops need no
// re-proof: their fields and regions are unchanged and the patched edge set
// is a superset of the base's (modulo renumbering), so the base's ordering
// paths still exist.
func (ck *checker) deltaHazards(touched []int) {
	p := ck.p
	n := len(p.Ops)
	ck.indexAccesses()
	acc := &ck.accID
	var readers csr[int32] // row i = ops reading op i's relay slot
	readers.build(n, func(emit func(int, int32)) {
		for i, s := range ck.src {
			if s < 0 && !ck.kind[i].marker() {
				emit(int(^s), int32(i))
			}
		}
	})

	// bfs marks every op reachable from start along dependents (forward) or
	// dependencies (backward).
	bfs := func(start int, forward bool) []bool {
		seen := make([]bool, n)
		seen[start] = true
		queue := []int32{int32(start)}
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			next := ck.deps.row(int(id))
			if forward {
				next = ck.dependents.row(int(id))
			}
			for _, x := range next {
				if !seen[x] {
					seen[x] = true
					queue = append(queue, x)
				}
			}
		}
		return seen
	}

	for _, t := range touched {
		op := &p.Ops[t]
		if op.Marker() {
			continue
		}
		fwd := bfs(t, true)  // t -> x paths
		bwd := bfs(t, false) // x -> t paths

		// Relay read-after-write: the touched reader must depend on its
		// slot's writer, not merely be ordered with it.
		if r := op.Src.Relay; r >= 0 && !bwd[r] {
			ck.fail(ClassHazard, t, "reads relay slot of %s without depending on it", ck.label(int(r)))
		}
		// If the touched op writes a relay, each of its readers must read
		// after the write.
		if op.Dst.IsRelay() {
			for _, reader := range readers.row(t) {
				if !fwd[reader] {
					ck.fail(ClassHazard, int(reader), "reads relay slot of %s without depending on it", ck.label(t))
				}
			}
		}
		check := func(node topology.NodeID, kind accessKind) {
			for _, other := range acc.row(ck.region(node, int(op.Chunk))) {
				x := int(other.op)
				if x == t || compatible(kind, other.kind) {
					continue
				}
				if !fwd[x] && !bwd[x] {
					ck.fail(ClassHazard, t,
						"unordered conflicting access to node %d chunk %d: %s and %s",
						node, op.Chunk, ck.label(t), ck.label(x))
				}
			}
		}
		if op.Src.IsNode() {
			check(op.Src.NodeID(), accRead)
		}
		if op.Dst.IsNode() {
			check(op.Dst.NodeID(), writeKind(ck.kind[t]))
		}
	}
}
