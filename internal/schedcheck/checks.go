package schedcheck

import (
	"fmt"

	"ccube/internal/topology"
)

// checker carries the shared state of one verification run. Buffer regions
// are dense: region ni*NumChunks+c is participant index ni's storage for
// chunk c.
type checker struct {
	p *Program
	r *Report

	nodeIdx    []int32         // NodeID -> index in p.Nodes, -1 for non-participants
	topo       []int           // topological order of op ids
	pos        []int32         // pos[id] = position of op id in topo
	dependents csr[int32]      // row i = ops listing i in Deps, in id order
	closure    []uint64        // reachability rows by topological position (bitset.go)
	words      int             // words in a full closure row
	readers    csr[int32]      // row i = ops whose Src is op i's relay slot
	finals     csr[int32]      // row r = ops marking region r ready, in id order
	forcedMemo map[[2]int]bool // forcedAfter results
}

func newChecker(p *Program) *checker {
	return &checker{p: p, r: &Report{NumOps: len(p.Ops)}}
}

func (ck *checker) fail(class Class, op int, format string, args ...any) {
	ck.r.Violations = append(ck.r.Violations, Violation{
		Class: class, Op: op, Msg: fmt.Sprintf(format, args...),
	})
}

func (ck *checker) participant(n topology.NodeID) bool {
	return n >= 0 && int(n) < len(ck.nodeIdx) && ck.nodeIdx[n] >= 0
}

// region returns the dense index of participant n's storage for chunk c.
func (ck *checker) region(n topology.NodeID, c int) int {
	return int(ck.nodeIdx[n])*ck.p.NumChunks + c
}

// csr is a compressed row index: row i holds items[off[i]:off[i+1]].
type csr[T any] struct {
	off   []int32
	items []T
}

func (c *csr[T]) row(i int) []T { return c.items[c.off[i]:c.off[i+1]] }

// buildCSR indexes n rows from visit, which must emit the same (row, item)
// sequence on both of its calls: the first counts, the second fills. Items
// keep their emission order within a row.
func buildCSR[T any](n int, visit func(emit func(row int, item T))) csr[T] {
	off := make([]int32, n+1)
	visit(func(row int, _ T) { off[row+1]++ })
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	items := make([]T, off[n])
	next := append([]int32(nil), off[:n]...)
	visit(func(row int, item T) {
		items[next[row]] = item
		next[row]++
	})
	return csr[T]{off: off, items: items}
}

// indexReaders fills ck.readers, used by linkOp (relay never read) and the
// relay read-after-write checks.
func (ck *checker) indexReaders() {
	ck.readers = buildCSR(len(ck.p.Ops), func(emit func(int, int32)) {
		for i := range ck.p.Ops {
			if r := ck.p.Ops[i].Src.Relay; r >= 0 {
				emit(r, int32(i))
			}
		}
	})
}

// label renders an op for messages.
func (ck *checker) label(id int) string {
	return fmt.Sprintf("#%d(%s)", id, ck.p.Label(id))
}

// --- structure -------------------------------------------------------------

// structure checks well-formedness: consistent ids, in-range references,
// relay-slot wiring, and acyclicity of the dependency graph. An acyclic
// dependency graph is deadlock-free: some op is always runnable until all
// have completed.
func (ck *checker) structure() {
	p := ck.p
	if p.Graph == nil {
		ck.fail(ClassStructure, -1, "program has no topology graph")
		return
	}
	if len(p.Nodes) < 2 {
		ck.fail(ClassStructure, -1, "program has %d participants", len(p.Nodes))
		return
	}
	if p.NumChunks < 1 {
		ck.fail(ClassStructure, -1, "program has %d chunks", p.NumChunks)
		return
	}
	if len(p.Ops) == 0 {
		ck.fail(ClassStructure, -1, "program has no operations")
		return
	}
	nn := p.Graph.NumNodes()
	ck.nodeIdx = make([]int32, nn)
	for i := range ck.nodeIdx {
		ck.nodeIdx[i] = -1
	}
	for i, n := range p.Nodes {
		if n < 0 || int(n) >= nn {
			ck.fail(ClassStructure, -1, "participant %d is node %d, outside the graph's %d nodes", i, n, nn)
			continue
		}
		ck.nodeIdx[n] = int32(i)
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.ID != i {
			ck.fail(ClassStructure, i, "op id %d at position %d", op.ID, i)
			return // ids are used as indices everywhere; stop early
		}
		if op.Chunk < 0 || op.Chunk >= p.NumChunks {
			ck.fail(ClassStructure, i, "chunk %d out of range [0,%d)", op.Chunk, p.NumChunks)
		}
		for _, d := range op.Deps {
			if d < 0 || d >= len(p.Ops) {
				ck.fail(ClassStructure, i, "dependency %d out of range", d)
				return
			}
			if d == i {
				ck.fail(ClassStructure, i, "op depends on itself")
				return
			}
		}
		if op.Final != -1 && !ck.participant(op.Final) {
			ck.fail(ClassStructure, i, "final node %d is not a participant", op.Final)
		}
		if op.Marker() {
			if !op.Src.IsNone() || !op.Dst.IsNone() {
				ck.fail(ClassStructure, i, "marker touches buffers")
			}
			continue
		}
		if op.Bytes <= 0 {
			ck.fail(ClassStructure, i, "transfer moves %d bytes", op.Bytes)
		}
		if int(op.Channel) >= p.Graph.NumChannels() {
			ck.fail(ClassStructure, i, "channel %d does not exist (%d channels)",
				op.Channel, p.Graph.NumChannels())
		}
		if op.Src.IsNone() {
			ck.fail(ClassStructure, i, "transfer has no source buffer")
		}
		if op.Dst.IsNone() {
			ck.fail(ClassStructure, i, "transfer has no destination buffer")
		}
		if op.Src.IsNode() && !ck.participant(op.Src.Node) {
			ck.fail(ClassStructure, i, "source node %d is not a participant", op.Src.Node)
		}
		if op.Dst.IsNode() && !ck.participant(op.Dst.Node) {
			ck.fail(ClassStructure, i, "destination node %d is not a participant", op.Dst.Node)
		}
		if op.Src.IsRelay() {
			r := op.Src.Relay
			if r < 0 || r >= len(p.Ops) {
				ck.fail(ClassStructure, i, "source relay slot %d out of range", r)
			} else if owner := &p.Ops[r]; !owner.Dst.IsRelay() || owner.Dst.Relay != r {
				ck.fail(ClassStructure, i, "source relay slot %d is not written by op %d", r, r)
			}
		}
		if op.Dst.IsRelay() {
			// The writer owns its relay slot: the slot is named by the
			// writing op's id, so each slot has exactly one writer.
			if op.Dst.Relay != i {
				ck.fail(ClassStructure, i, "relay destination slot %d is not the op's own", op.Dst.Relay)
			}
			if op.Accumulate {
				ck.fail(ClassStructure, i, "relay hop accumulates; detour forwarding must copy")
			}
		}
	}
	if !ck.r.OK() {
		return
	}
	ck.topoSort()
}

// topoSort fills ck.dependents, ck.topo and ck.pos (Kahn's algorithm) or
// reports a cycle.
func (ck *checker) topoSort() {
	ops := ck.p.Ops
	indeg := make([]int32, len(ops))
	ck.dependents = buildCSR(len(ops), func(emit func(int, int32)) {
		for i := range ops {
			for _, d := range ops[i].Deps {
				emit(d, int32(i))
			}
		}
	})
	// order doubles as the FIFO queue: ops are appended once runnable.
	order := make([]int, 0, len(ops))
	for i := range ops {
		indeg[i] = int32(len(ops[i].Deps))
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, dep := range ck.dependents.row(order[head]) {
			indeg[dep]--
			if indeg[dep] == 0 {
				order = append(order, int(dep))
			}
		}
	}
	if len(order) != len(ops) {
		ck.fail(ClassStructure, -1,
			"dependency cycle: only %d of %d ops can execute (deadlock)", len(order), len(ops))
		return
	}
	ck.topo = order
	ck.pos = make([]int32, len(ops))
	for k, id := range order {
		ck.pos[id] = int32(k)
	}
}

// --- link validity ---------------------------------------------------------

// links checks that every transfer rides a real physical channel whose
// endpoints match its buffers, and that detour routes are contiguous chains
// of real links forwarded by GPUs (paper §IV-A: static routing kernels run
// on intermediate GPUs, never on switches or phantom links).
func (ck *checker) links() {
	for i := range ck.p.Ops {
		ck.linkOp(i)
	}
}

// linkOp runs the link checks for a single op; CheckPatch reuses it to
// re-verify only the ops a patch touched.
func (ck *checker) linkOp(i int) {
	p := ck.p
	{
		op := &p.Ops[i]
		if op.Marker() {
			return
		}
		ch := p.Graph.Channel(op.Channel)
		if ch.Down() {
			ck.fail(ClassLink, i, "channel %d (%s->%s) is down: schedule needs repair",
				op.Channel, p.Graph.Node(ch.From).Name, p.Graph.Node(ch.To).Name)
		}
		if op.Src.IsNode() && ch.From != op.Src.Node {
			ck.fail(ClassLink, i, "channel %d starts at node %d but source buffer is on node %d",
				op.Channel, ch.From, op.Src.Node)
		}
		if op.Src.IsRelay() {
			owner := &p.Ops[op.Src.Relay]
			ownerCh := p.Graph.Channel(owner.Channel)
			if ownerCh.To != ch.From {
				ck.fail(ClassLink, i,
					"detour discontinuity: previous hop %s lands at node %d, this hop departs node %d",
					ck.label(owner.ID), ownerCh.To, ch.From)
			}
			// Chunk identity must survive the relay: contribution counts
			// cannot tell two fully-reduced chunks apart, so forwarding
			// chunk X's bytes into chunk Y's region would otherwise pass
			// conservation unnoticed.
			if owner.Chunk != op.Chunk {
				ck.fail(ClassLink, i,
					"detour forwards chunk %d data from %s as chunk %d",
					owner.Chunk, ck.label(owner.ID), op.Chunk)
			}
		}
		if op.Dst.IsNode() && ch.To != op.Dst.Node {
			ck.fail(ClassLink, i, "channel %d ends at node %d but destination buffer is on node %d",
				op.Channel, ch.To, op.Dst.Node)
		}
		if op.Dst.IsRelay() {
			if p.Graph.Node(ch.To).Kind != topology.GPU {
				ck.fail(ClassLink, i, "detour intermediate %s is not a GPU (forwarding kernels run on GPUs)",
					p.Graph.Node(ch.To).Name)
			}
			if len(ck.readers.row(i)) == 0 {
				ck.fail(ClassLink, i, "relay slot is never read: detour data dropped at %s",
					p.Graph.Node(ch.To).Name)
			}
		}
	}
}

// --- data hazards ----------------------------------------------------------

// accessKind classifies how an op touches a buffer region. Accumulation is
// an atomic read-modify-write: two accumulations into the same region
// commute (sums are order-independent; floating-point reassociation is
// accepted exactly as NCCL accepts it), so accum/accum pairs need no
// ordering. Every other combination with a write does.
type accessKind int32

const (
	accRead  accessKind = iota
	accCopy             // overwrite (broadcast, ring AG receive)
	accAccum            // commuting reduction update
)

type access struct {
	op   int32
	kind accessKind
}

func compatible(a, b accessKind) bool {
	if a == accRead && b == accRead {
		return true
	}
	return a == accAccum && b == accAccum
}

// writeKind is how op touches its destination region.
func writeKind(op *Op) accessKind {
	if op.Accumulate {
		return accAccum
	}
	return accCopy
}

// accessIndex lists, per buffer region, the ops touching it in id order.
// Relay slots are not regions: each has a single writer by construction and
// is checked against its readers. An op whose source and destination are
// the same region is listed once, with its (stronger) write kind. hazards
// and CheckPatch's deltaHazards share it.
func (ck *checker) accessIndex() csr[access] {
	p := ck.p
	return buildCSR(len(p.Nodes)*p.NumChunks, func(emit func(int, access)) {
		for i := range p.Ops {
			op := &p.Ops[i]
			src, dst := -1, -1
			if op.Src.IsNode() {
				src = ck.region(op.Src.Node, op.Chunk)
			}
			if op.Dst.IsNode() {
				dst = ck.region(op.Dst.Node, op.Chunk)
			}
			if src >= 0 && src != dst {
				emit(src, access{op: int32(i), kind: accRead})
			}
			if dst >= 0 {
				emit(dst, access{op: int32(i), kind: writeKind(op)})
			}
		}
	})
}

// hazards proves data-race freedom: for every pair of operations touching
// the same buffer region, where the pair does not commute (anything but
// read/read or accumulate/accumulate), a dependency path must order them.
// This is the check that makes the C1 overlap trustworthy — a broadcast
// reading a chunk that some reduction can still write, under any
// interleaving, is reported here. Relay slots additionally require the
// reader to be ordered after the writer (read-after-write), not merely
// ordered. Violations come out in op order, then region order.
func (ck *checker) hazards() {
	p := ck.p
	for i := range p.Ops {
		// Relay read-after-write: the reader must depend on the slot's
		// writer, or it can observe an empty slot.
		if r := p.Ops[i].Src.Relay; r >= 0 && !ck.reaches(r, i) {
			ck.fail(ClassHazard, i, "reads relay slot of %s without depending on it", ck.label(r))
		}
	}
	acc := ck.accessIndex()
	for r := 0; r < len(acc.off)-1; r++ {
		list := acc.row(r)
		for a := 0; a < len(list); a++ {
			for b := a + 1; b < len(list); b++ {
				if compatible(list[a].kind, list[b].kind) {
					continue
				}
				if x, y := int(list[a].op), int(list[b].op); !ck.pathBetween(x, y) {
					ck.fail(ClassHazard, x,
						"unordered conflicting access to node %d chunk %d: %s and %s",
						p.Nodes[r/p.NumChunks], r%p.NumChunks, ck.label(x), ck.label(y))
				}
			}
		}
	}
}

// --- conservation / coverage -----------------------------------------------

// conservation runs an abstract interpretation of the schedule's data
// semantics over contribution multisets: buffer state is "which
// participants' inputs are summed here, with what multiplicity", copies
// clone it, accumulations add it. Because the hazard check proves all
// non-commuting conflicting accesses are ordered (and the remaining
// unordered pairs — concurrent accumulations — commute), any topological
// order yields the same end state, so one sweep is a proof, not a sample.
// It reports chunks
// reduced twice, missing or duplicated contributions under the AllReduce
// contract, (node, chunk) pairs that never become ready, and readiness
// markers not ordered after the writes they announce. It leaves the finals
// index in ck.finals for the order check.
func (ck *checker) conservation() {
	p := ck.p
	np, nr := len(p.Nodes), len(p.Nodes)*p.NumChunks

	ck.finals = buildCSR(nr, func(emit func(int, int32)) {
		for i := range p.Ops {
			if op := &p.Ops[i]; op.Final >= 0 {
				emit(ck.region(op.Final, op.Chunk), int32(i))
			}
		}
	})
	// writes lists every op writing each region, in sweep order.
	writes := buildCSR(nr, func(emit func(int, int32)) {
		for _, id := range ck.topo {
			if op := &p.Ops[id]; op.Dst.IsNode() {
				emit(ck.region(op.Dst.Node, op.Chunk), int32(id))
			}
		}
	})

	// state holds one contribution-count vector (indexed by participant)
	// per region, starting with the participant's own input; relays holds
	// one per relay slot, numbered by relaySlot (zero until written: an
	// empty-slot read is already a hazard violation).
	state := make([]int32, nr*np)
	for r := 0; r < nr; r++ {
		state[r*np+r/p.NumChunks] = 1
	}
	relaySlot := make([]int32, len(p.Ops))
	slots := 0
	for i := range p.Ops {
		if p.Ops[i].Dst.IsRelay() {
			relaySlot[i] = int32(slots)
			slots++
		}
	}
	relays := make([]int32, slots*np)
	vec := func(arena []int32, i int) []int32 { return arena[i*np : (i+1)*np] }

	for _, id := range ck.topo {
		op := &p.Ops[id]
		if op.Marker() {
			continue
		}
		var src []int32
		if op.Src.IsRelay() {
			src = vec(relays, int(relaySlot[op.Src.Relay]))
		} else {
			src = vec(state, ck.region(op.Src.Node, op.Chunk))
		}
		if op.Dst.IsRelay() {
			copy(vec(relays, int(relaySlot[id])), src)
			continue
		}
		dst := vec(state, ck.region(op.Dst.Node, op.Chunk))
		if op.Accumulate {
			for j := range dst {
				if src[j] > 0 && dst[j] > 0 {
					ck.fail(ClassConservation, id,
						"chunk %d at node %d would sum node %d's contribution twice",
						op.Chunk, op.Dst.Node, p.Nodes[j])
				}
				dst[j] += src[j]
			}
		} else {
			copy(dst, src)
		}
	}

	complete := func(v []int32) bool {
		for _, c := range v {
			if c != 1 {
				return false
			}
		}
		return true
	}

	for r := 0; r < nr; r++ {
		n, c := p.Nodes[r/p.NumChunks], r%p.NumChunks
		finals := ck.finals.row(r)
		if len(finals) == 0 {
			ck.fail(ClassConservation, -1, "chunk %d never becomes ready at node %d", c, n)
			continue
		}
		if !p.AllReduce {
			continue
		}
		ws := writes.row(r)
		if v := vec(state, r); !complete(v) {
			op := -1
			if len(ws) > 0 {
				op = int(ws[len(ws)-1])
			}
			ck.fail(ClassConservation, op,
				"node %d ends chunk %d with contributions %v, want exactly one each", n, c, v)
		}
		// Readiness must come after the data: every write to the region
		// has to be ordered before every final op announcing it.
		for _, w := range ws {
			for _, f := range finals {
				if f != w && !ck.reaches(int(w), int(f)) {
					ck.fail(ClassConservation, int(f),
						"chunk %d marked ready at node %d without depending on write %s",
						c, n, ck.label(int(w)))
				}
			}
		}
	}
}

// --- in-order proof --------------------------------------------------------

// order proves the schedule's InOrder claim — the property gradient queuing
// (C2) builds on: at every node, within each of the Streams round-robin
// chunk streams, chunk c cannot complete before chunk c-Streams under any
// interleaving. "Cannot complete before" is forcedAfter: either a
// dependency path exists, or the earlier final is a zero-cost marker whose
// every dependency is itself forced before the later final (markers finish
// the instant their inputs do, so they inherit their inputs' ordering).
// Requires ck.finals from conservation.
func (ck *checker) order() {
	p := ck.p
	k := p.NumChunks
	streams := p.Streams
	if streams < 1 {
		streams = 1
	}
	// The effective final per (node, chunk) is the last one added, matching
	// Schedule.Instantiate's overwrite semantics.
	finalAt := func(r int) int {
		f := ck.finals.row(r)
		if len(f) == 0 {
			return -1
		}
		return int(f[len(f)-1])
	}
	ck.forcedMemo = make(map[[2]int]bool)
	for ni := range p.Nodes {
		for c := streams; c < k; c++ {
			prev, cur := finalAt(ni*k+c-streams), finalAt(ni*k+c)
			if prev < 0 || cur < 0 {
				continue // missing finals already reported by conservation
			}
			if !ck.forcedAfter(prev, cur) {
				ck.fail(ClassOrder, cur,
					"node %d: chunk %d may complete before chunk %d — in-order claim unproven",
					p.Nodes[ni], c, c-streams)
			}
		}
	}
}

// forcedAfter reports whether op b can never complete before op a, under
// any interleaving consistent with the dependencies.
func (ck *checker) forcedAfter(a, b int) bool {
	if a == b || ck.reaches(a, b) {
		return true
	}
	op := &ck.p.Ops[a]
	if !op.Marker() {
		return false
	}
	if len(op.Deps) == 0 {
		return true // completes at time zero
	}
	key := [2]int{a, b}
	if v, ok := ck.forcedMemo[key]; ok {
		return v
	}
	ck.forcedMemo[key] = true // break hypothetical sharing; DAG has no cycles
	out := true
	for _, d := range op.Deps {
		if !ck.forcedAfter(d, b) {
			out = false
			break
		}
	}
	ck.forcedMemo[key] = out
	return out
}
