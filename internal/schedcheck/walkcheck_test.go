package schedcheck

import (
	"fmt"
	"math/bits"

	"ccube/internal/topology"
)

// walkChecker is Check as it stood before the decode-and-sweep layout, kept
// as the second differential oracle beside reference: the same planned
// algorithm (chunk-priority Kahn order, barrier hubs, run-walk hazard plan,
// set-based conservation, banded closure) over node-major regions, but
// reading the Ops afresh in each of its walks (structure, topological sort,
// readers index, links, relay and region hazard plans, finals index, relay
// slots, the interpretation), with every index freshly allocated, and with
// the full triangle as the fallback for an exact-pass question outside the
// band. Check's reports must equal its reports byte for byte. Buffer
// regions are dense: region ni*NumChunks+c is participant index ni's
// storage for chunk c.
type walkChecker struct {
	p *Program
	r *Report

	nodeIdx    []int32    // NodeID -> index in p.Nodes, -1 for non-participants
	topo       []int32    // chunk-priority topological order of op ids
	pos        []int32    // pos[id] = position of op id in topo
	dependents csr[int32] // row i = ops listing i in Deps, in id order
	readers    csr[int32] // row i = ops whose Src is op i's relay slot
	finals     csr[int32] // row r = ops marking region r ready, in id order

	// Reachability. plan selects the planned mode; hubs are the
	// barrier hubs' op ids, up and down their labels (nil without hubs);
	// hz, rowOff and closure are the band; queries are the questions
	// waiting for it.
	plan       bool
	hubs       []int32
	up, down   []uint64
	hz         []int32
	rowOff     []int
	closure    []uint64
	queries    []query
	forcedGen  []int32 // forcedAfter memo: generation stamp per op
	forcedVal  []bool  // forcedAfter memo: result per op, valid at forcedGen
	forcedCall int32   // current forcedAfter generation
}

func newWalkChecker(p *Program) *walkChecker {
	return &walkChecker{p: p, r: &Report{NumOps: len(p.Ops)}}
}

func (ck *walkChecker) fail(class Class, op int, format string, args ...any) {
	ck.r.Violations = append(ck.r.Violations, Violation{
		Class: class, Op: op, Msg: fmt.Sprintf(format, args...),
	})
}

func (ck *walkChecker) participant(n topology.NodeID) bool {
	return n >= 0 && int(n) < len(ck.nodeIdx) && ck.nodeIdx[n] >= 0
}

// region returns the dense index of participant n's storage for chunk c.
func (ck *walkChecker) region(n topology.NodeID, c int) int {
	return int(ck.nodeIdx[n])*ck.p.NumChunks + c
}

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
	// off[row] is row's fill cursor; filled, it has advanced to the row's
	// end, so shifting the array by one restores the starts.
	visit(func(row int, item T) {
		items[off[row]] = item
		off[row]++
	})
	copy(off[1:], off[:n])
	off[0] = 0
	return csr[T]{off: off, items: items}
}

// indexReaders fills ck.readers, used by linkOp (relay never read) and the
// relay read-after-write checks.
func (ck *walkChecker) indexReaders() {
	ck.readers = buildCSR(len(ck.p.Ops), func(emit func(int, int32)) {
		for i := range ck.p.Ops {
			if r := ck.p.Ops[i].Src.Relay; r >= 0 {
				emit(int(r), int32(i))
			}
		}
	})
}

// label renders an op for messages.
func (ck *walkChecker) label(id int) string {
	return fmt.Sprintf("#%d(%s)", id, ck.p.Label(id))
}

// --- structure -------------------------------------------------------------

// structure checks well-formedness: consistent ids, in-range references,
// relay-slot wiring, and acyclicity of the dependency graph. An acyclic
// dependency graph is deadlock-free: some op is always runnable until all
// have completed.
func (ck *walkChecker) structure() {
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
	if len(p.ChunkBytes) != p.NumChunks {
		ck.fail(ClassStructure, -1, "program sizes %d of its %d chunks", len(p.ChunkBytes), p.NumChunks)
		return
	}
	for c, b := range p.ChunkBytes {
		if b <= 0 {
			ck.fail(ClassStructure, -1, "chunk %d has %d bytes", c, b)
		}
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
	if n := len(p.Ops); len(p.DepOff) != n+1 || p.DepOff[0] != 0 || int(p.DepOff[n]) != len(p.DepList) {
		ck.fail(ClassStructure, -1, "dependency offsets do not cover %d ops and %d deps", n, len(p.DepList))
		return
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		if lo, hi := p.DepOff[i], p.DepOff[i+1]; hi < lo || int(hi) > len(p.DepList) {
			ck.fail(ClassStructure, i, "dependency offsets [%d,%d) out of order", lo, hi)
			return
		}
		if op.Chunk < 0 || int(op.Chunk) >= p.NumChunks {
			ck.fail(ClassStructure, i, "chunk %d out of range [0,%d)", op.Chunk, p.NumChunks)
		}
		for _, d := range p.Deps(i) {
			if d < 0 || int(d) >= len(p.Ops) {
				ck.fail(ClassStructure, i, "dependency %d out of range", d)
				return
			}
			if int(d) == i {
				ck.fail(ClassStructure, i, "op depends on itself")
				return
			}
		}
		if op.Final != -1 && !ck.participant(op.FinalNode()) {
			ck.fail(ClassStructure, i, "final node %d is not a participant", op.Final)
		}
		if op.Marker() {
			if !op.Src.IsNone() || !op.Dst.IsNone() {
				ck.fail(ClassStructure, i, "marker touches buffers")
			}
			continue
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
		if op.Src.IsNode() && !ck.participant(op.Src.NodeID()) {
			ck.fail(ClassStructure, i, "source node %d is not a participant", op.Src.Node)
		}
		if op.Dst.IsNode() && !ck.participant(op.Dst.NodeID()) {
			ck.fail(ClassStructure, i, "destination node %d is not a participant", op.Dst.Node)
		}
		if op.Src.IsRelay() {
			r := op.Src.Relay
			if int(r) >= len(p.Ops) {
				ck.fail(ClassStructure, i, "source relay slot %d out of range", r)
			} else if owner := &p.Ops[r]; !owner.Dst.IsRelay() || owner.Dst.Relay != r {
				ck.fail(ClassStructure, i, "source relay slot %d is not written by op %d", r, r)
			}
		}
		if op.Dst.IsRelay() {
			// The writer owns its relay slot: the slot is named by the
			// writing op's id, so each slot has exactly one writer.
			if int(op.Dst.Relay) != i {
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

// topoSort fills ck.dependents, ck.topo and ck.pos or reports a cycle. It
// is Kahn's algorithm with the lowest ready chunk always going first (FIFO
// within a chunk), so a chunk's ops sit together wherever the dependencies
// allow and the reachability band stays about one chunk wide. In the
// planned mode the same sweep hands out the barrier hub bits, propagates
// the up labels and sets every horizon to its floor.
func (ck *walkChecker) topoSort() {
	ops := ck.p.Ops
	n := len(ops)
	// The dependents index is buildCSR's, written out: it is the largest
	// one, and the count pass also seeds the in-degrees and the queues.
	indeg := make([]int32, n)
	off := make([]int32, n+1)
	q := newWalkQueues(n, ck.p.NumChunks)
	for i := range ops {
		deps := ck.p.Deps(i)
		for _, d := range deps {
			off[d+1]++
		}
		if indeg[i] = int32(len(deps)); indeg[i] == 0 {
			q.push(int32(i), int(ops[i].Chunk))
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	items := make([]int32, off[n])
	for i := range ops {
		for _, d := range ck.p.Deps(i) {
			items[off[d]] = int32(i)
			off[d]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	ck.dependents = csr[int32]{off: off, items: items}
	order := make([]int32, 0, n)
	for id := q.pop(); id >= 0; id = q.pop() {
		order = append(order, id)
		if op := &ops[id]; ck.plan && op.Marker() && op.Final == -1 && len(ck.hubs) < 64 {
			if ck.up == nil {
				ck.up = make([]uint64, n) // no op before the first hub has a label
			}
			ck.up[id] |= 1 << uint(len(ck.hubs))
			ck.hubs = append(ck.hubs, id)
		}
		var lab uint64
		if ck.up != nil {
			lab = ck.up[id]
		}
		for _, dep := range ck.dependents.row(int(id)) {
			if lab != 0 {
				ck.up[dep] |= lab
			}
			if indeg[dep]--; indeg[dep] == 0 {
				q.push(dep, int(ops[dep].Chunk))
			}
		}
	}
	if len(order) != n {
		ck.fail(ClassStructure, -1,
			"dependency cycle: only %d of %d ops can execute (deadlock)", len(order), n)
		return
	}
	ck.topo = order
	ck.pos = q.next // every op is placed, so its queue link is free
	if ck.plan {
		ck.hz = indeg // all zero now; the horizons' floor is set below
	}
	for k, id := range order {
		ck.pos[id] = int32(k)
		if ck.plan {
			ck.hz[k] = int32(k)
		}
	}
}

// walkQueues is Kahn's ready set for topoSort: one FIFO per chunk, threaded
// through next, and a bitmap of the chunks whose FIFO is non-empty.
type walkQueues struct {
	head, tail, next []int32
	ready            []uint64
	lo               int // every word of ready below lo is zero
}

func newWalkQueues(ops, chunks int) *walkQueues {
	q := &walkQueues{
		head:  make([]int32, chunks),
		tail:  make([]int32, chunks),
		next:  make([]int32, ops),
		ready: make([]uint64, (chunks+63)>>6),
	}
	for c := range q.head {
		q.head[c] = -1
	}
	return q
}

func (q *walkQueues) push(id int32, c int) {
	q.next[id] = -1
	if q.head[c] < 0 {
		q.head[c] = id
		q.ready[c>>6] |= 1 << uint(c&63)
		q.lo = min(q.lo, c>>6)
	} else {
		q.next[q.tail[c]] = id
	}
	q.tail[c] = id
}

// pop removes the head of the lowest non-empty chunk's FIFO, or returns -1.
func (q *walkQueues) pop() int32 {
	for q.lo < len(q.ready) && q.ready[q.lo] == 0 {
		q.lo++
	}
	if q.lo == len(q.ready) {
		return -1
	}
	c := q.lo<<6 + bits.TrailingZeros64(q.ready[q.lo])
	id := q.head[c]
	if q.head[c] = q.next[id]; q.head[c] < 0 {
		q.ready[q.lo] &^= 1 << uint(c&63)
	}
	return id
}

// --- link validity ---------------------------------------------------------

// links checks that every transfer rides a real physical channel whose
// endpoints match its buffers, and that detour routes are contiguous chains
// of real links forwarded by GPUs (paper §IV-A: static routing kernels run
// on intermediate GPUs, never on switches or phantom links).
func (ck *walkChecker) links() {
	for i := range ck.p.Ops {
		ck.linkOp(i)
	}
}

// linkOp runs the link checks for a single op; CheckPatch reuses it to
// re-verify only the ops a patch touched.
func (ck *walkChecker) linkOp(i int) {
	p := ck.p
	{
		op := &p.Ops[i]
		if op.Marker() {
			return
		}
		ch := p.Graph.Channel(op.ChannelID())
		if ch.Down() {
			ck.fail(ClassLink, i, "channel %d (%s->%s) is down: schedule needs repair",
				op.Channel, p.Graph.Node(ch.From).Name, p.Graph.Node(ch.To).Name)
		}
		if op.Src.IsNode() && ch.From != op.Src.NodeID() {
			ck.fail(ClassLink, i, "channel %d starts at node %d but source buffer is on node %d",
				op.Channel, ch.From, op.Src.Node)
		}
		if op.Src.IsRelay() {
			owner := &p.Ops[op.Src.Relay]
			ownerCh := p.Graph.Channel(owner.ChannelID())
			if ownerCh.To != ch.From {
				ck.fail(ClassLink, i,
					"detour discontinuity: previous hop %s lands at node %d, this hop departs node %d",
					ck.label(int(op.Src.Relay)), ownerCh.To, ch.From)
			}
			// Chunk identity must survive the relay: contribution counts
			// cannot tell two fully-reduced chunks apart, so forwarding
			// chunk X's bytes into chunk Y's region would otherwise pass
			// conservation unnoticed.
			if owner.Chunk != op.Chunk {
				ck.fail(ClassLink, i,
					"detour forwards chunk %d data from %s as chunk %d",
					owner.Chunk, ck.label(int(op.Src.Relay)), op.Chunk)
			}
		}
		if op.Dst.IsNode() && ch.To != op.Dst.NodeID() {
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

// accessIndex lists, per buffer region, the ops touching it: in topological
// order for Check's run walk, in id order for the exact report and
// CheckPatch's deltaHazards. Relay slots are not regions: each has a single
// writer by construction and is checked against its readers. An op whose
// source and destination are the same region is listed once, with its
// (stronger) write kind.
func (ck *walkChecker) accessIndex(inTopo bool) csr[access] {
	p := ck.p
	return buildCSR(len(p.Nodes)*p.NumChunks, func(emit func(int, access)) {
		for i := range p.Ops {
			id := i
			if inTopo {
				id = int(ck.topo[i])
			}
			op := &p.Ops[id]
			src, dst := -1, -1
			if op.Src.IsNode() {
				src = ck.region(op.Src.NodeID(), int(op.Chunk))
			}
			if op.Dst.IsNode() {
				dst = ck.region(op.Dst.NodeID(), int(op.Chunk))
			}
			if src >= 0 && src != dst {
				emit(src, access{op: int32(id), kind: accRead})
			}
			if dst >= 0 {
				emit(dst, access{op: int32(id), kind: opWriteKind(op)})
			}
		}
	})
}

// opWriteKind is how op touches its destination region.
func opWriteKind(op *Op) accessKind {
	if op.Accumulate {
		return accAccum
	}
	return accCopy
}

// walkPending is what a class's planning walk leaves for its report: the
// questions it queued in ck.queries[from:to], and whether it already knows
// the class cannot pass as planned.
type walkPending struct {
	from, to int
	failed   bool
}

// passes reports whether the planned walk proved the class: nothing failed
// and the band confirms every queued question.
func (ck *walkChecker) passes(pd walkPending) bool {
	return !pd.failed && ck.answered(pd.from, pd.to)
}

// planHazards plans the hazard class. For every pair of operations touching
// the same buffer region, where the pair does not commute (anything but
// read/read or accumulate/accumulate), a dependency path must order them.
// That is what makes the C1 overlap trustworthy: a broadcast reading a chunk
// that some reduction can still write, under any interleaving, fails here.
// Relay slots additionally require the reader to be ordered after the writer
// (read-after-write), not merely ordered.
//
// All pairs need not be asked. Walking a region's accesses in topological
// order, group them into maximal runs of mutually compatible accesses (reads,
// or accumulations; each copy is a run of its own). Two adjacent runs always
// conflict pairwise, so they must be ordered; and once every adjacent pair
// is ordered, any conflicting pair further apart is ordered through any op
// of each run in between. So the adjacent-run pairs decide the class.
func (ck *walkChecker) planHazards() walkPending {
	p := ck.p
	pd := walkPending{from: len(ck.queries)}
	for i := range p.Ops {
		// Relay read-after-write: the reader must depend on the slot's
		// writer, or it can observe an empty slot.
		if r := int(p.Ops[i].Src.Relay); r >= 0 && !ck.ask(r, i) {
			pd.failed = true
		}
	}
	acc := ck.accessIndex(true)
	for r := 0; r < len(acc.off)-1 && !pd.failed; r++ {
		list := acc.row(r)
		prev := 0 // the previous run is list[prev:cur]
		for cur := 0; cur < len(list); {
			end := cur + 1
			if kind := list[cur].kind; kind != accCopy {
				for end < len(list) && list[end].kind == kind {
					end++
				}
			}
			for _, x := range list[prev:cur] {
				for _, y := range list[cur:end] {
					if !ck.ask(int(x.op), int(y.op)) {
						pd.failed = true
					}
				}
			}
			prev, cur = cur, end
		}
	}
	pd.to = len(ck.queries)
	return pd
}

// hazards reports the hazard class. When the plan does not prove it, the
// exact pass asks about every conflicting pair, so the violations come out
// as the all-pairs definition has them: relay reads in op order, then
// regions in order, pairs in id order.
func (ck *walkChecker) hazards(pd walkPending) {
	if ck.passes(pd) {
		return
	}
	p := ck.p
	for i := range p.Ops {
		if r := int(p.Ops[i].Src.Relay); r >= 0 && !ck.reaches(r, i) {
			ck.fail(ClassHazard, i, "reads relay slot of %s without depending on it", ck.label(r))
		}
	}
	acc := ck.accessIndex(false)
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

// planConservation plans the conservation class: an abstract interpretation
// of the schedule's data semantics over contribution sets. Buffer state is
// "which participants' inputs are summed here"; copies clone it,
// accumulations add it. Because the hazard check proves all non-commuting
// conflicting accesses are ordered (and the remaining unordered pairs —
// concurrent accumulations — commute), any topological order yields the
// same end state, so one sweep is a proof, not a sample. The class rejects
// chunks reduced twice, missing or duplicated contributions under the
// AllReduce contract, (node, chunk) pairs that never become ready, and
// readiness markers not ordered after the writes they announce.
//
// Each region and relay slot holds a ⌈P/64⌉-word set, and accumulation is
// an overlap test plus OR. While no accumulation overlaps, every count is 0
// or 1 and the sets are the count vectors exactly; the first overlap, like
// any other failure, leaves the report to conservation's exact pass. The finals
// index is left in ck.finals for the order check.
func (ck *walkChecker) planConservation() walkPending {
	p := ck.p
	np, nr := len(p.Nodes), len(p.Nodes)*p.NumChunks
	ck.finals = buildCSR(nr, func(emit func(int, int32)) {
		for i := range p.Ops {
			if op := &p.Ops[i]; op.Final >= 0 {
				emit(ck.region(op.FinalNode(), int(op.Chunk)), int32(i))
			}
		}
	})
	pd := walkPending{from: len(ck.queries)}

	// One arena: a set per region, starting with the participant's own
	// input, then a set per relay slot (empty until written: an empty-slot
	// read is already a hazard violation).
	w := (np + 63) >> 6
	slot, slots := ck.relaySlots()
	arena := make([]uint64, (nr+slots)*w)
	set := func(i int) []uint64 { return arena[i*w : (i+1)*w] }
	for r := 0; r < nr; r++ {
		ni := r / p.NumChunks
		arena[r*w+ni>>6] |= 1 << uint(ni&63)
	}
	for _, t := range ck.topo {
		id := int(t)
		op := &p.Ops[id]
		if op.Marker() {
			continue
		}
		var src []uint64
		if op.Src.IsRelay() {
			src = set(nr + int(slot[op.Src.Relay]))
		} else {
			src = set(ck.region(op.Src.NodeID(), int(op.Chunk)))
		}
		if op.Dst.IsRelay() {
			copy(set(nr+int(slot[id])), src)
			continue
		}
		r := ck.region(op.Dst.NodeID(), int(op.Chunk))
		dst := set(r)
		if op.Accumulate {
			for j, x := range src {
				if dst[j]&x != 0 {
					pd.failed = true
				}
				dst[j] |= x
			}
		} else {
			copy(dst, src)
		}
		if p.AllReduce {
			// Readiness must come after the data: every write to the region
			// has to be ordered before every final op announcing it.
			for _, f := range ck.finals.row(r) {
				if int(f) != id && !ck.ask(id, int(f)) {
					pd.failed = true
				}
			}
		}
	}
	for r := 0; r < nr; r++ {
		if len(ck.finals.row(r)) == 0 || p.AllReduce && !fullSet(set(r), np) {
			pd.failed = true
		}
	}
	pd.to = len(ck.queries)
	return pd
}

// relaySlots numbers the relay slots densely in op order: slot[id] for every
// op writing one, and the slot count.
func (ck *walkChecker) relaySlots() ([]int32, int) {
	slot := make([]int32, len(ck.p.Ops))
	n := 0
	for i := range ck.p.Ops {
		if ck.p.Ops[i].Dst.IsRelay() {
			slot[i] = int32(n)
			n++
		}
	}
	return slot, n
}

// conservation reports the conservation class. When the plan does not prove
// it, the exact pass reruns the interpretation over contribution-count
// vectors (indexed by participant), so every report names the counts as they
// are: a double sum shows as a 2, not as a set member.
func (ck *walkChecker) conservation(pd walkPending) {
	if ck.passes(pd) {
		return
	}
	p := ck.p
	np, nr := len(p.Nodes), len(p.Nodes)*p.NumChunks
	slot, slots := ck.relaySlots()
	state := make([]int32, (nr+slots)*np)
	vec := func(i int) []int32 { return state[i*np : (i+1)*np] }
	for r := 0; r < nr; r++ {
		state[r*np+r/p.NumChunks] = 1
	}
	for _, t := range ck.topo {
		id := int(t)
		op := &p.Ops[id]
		if op.Marker() {
			continue
		}
		var src []int32
		if op.Src.IsRelay() {
			src = vec(nr + int(slot[op.Src.Relay]))
		} else {
			src = vec(ck.region(op.Src.NodeID(), int(op.Chunk)))
		}
		if op.Dst.IsRelay() {
			copy(vec(nr+int(slot[id])), src)
			continue
		}
		dst := vec(ck.region(op.Dst.NodeID(), int(op.Chunk)))
		if !op.Accumulate {
			copy(dst, src)
			continue
		}
		for j := range dst {
			if src[j] > 0 && dst[j] > 0 {
				ck.fail(ClassConservation, id,
					"chunk %d at node %d would sum node %d's contribution twice",
					op.Chunk, op.Dst.Node, p.Nodes[j])
			}
			dst[j] += src[j]
		}
	}

	// writes lists every op writing each region, in sweep order.
	writes := buildCSR(nr, func(emit func(int, int32)) {
		for _, id := range ck.topo {
			if op := &p.Ops[id]; op.Dst.IsNode() {
				emit(ck.region(op.Dst.NodeID(), int(op.Chunk)), id)
			}
		}
	})
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
		if v := vec(r); !exactlyOnce(v) {
			op := -1
			if len(ws) > 0 {
				op = int(ws[len(ws)-1])
			}
			ck.fail(ClassConservation, op,
				"node %d ends chunk %d with contributions %v, want exactly one each", n, c, v)
		}
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
// Requires ck.finals from planConservation.
//
// With planning set it proves nothing yet: it queues every question
// forcedAfter can ask, through planForced, for the band the proof will run
// on.
func (ck *walkChecker) order(planning bool) {
	p := ck.p
	k := p.NumChunks
	streams := max(p.Streams, 1)
	if ck.forcedGen == nil {
		ck.forcedGen = make([]int32, len(p.Ops))
		ck.forcedVal = make([]bool, len(p.Ops))
	}
	for ni := range p.Nodes {
		for c := streams; c < k; c++ {
			prev, cur := ck.finalAt(ni*k+c-streams), ck.finalAt(ni*k+c)
			if prev < 0 || cur < 0 {
				continue // missing finals already reported by conservation
			}
			ck.forcedCall++
			if planning {
				ck.planForced(prev, cur)
			} else if !ck.forcedAfter(prev, cur) {
				ck.fail(ClassOrder, cur,
					"node %d: chunk %d may complete before chunk %d — in-order claim unproven",
					p.Nodes[ni], c, c-streams)
			}
		}
	}
}

// planForced queues the questions forcedAfter(a, b) can ask: (a, b) itself
// and, because a marker's answer may come from its dependencies, the same
// question for each dependency down the marker chains. That is a superset of
// what forcedAfter asks once answers short-circuit it.
func (ck *walkChecker) planForced(a, b int) {
	if a == b {
		return
	}
	if ck.pos[a] < ck.pos[b] {
		if ck.settled(a, b) {
			return
		}
		ck.enqueue(a, b)
	}
	op := &ck.p.Ops[a]
	if !op.Marker() {
		return
	}
	for _, d := range ck.p.Deps(a) {
		if ck.forcedGen[d] != ck.forcedCall {
			ck.forcedGen[d] = ck.forcedCall
			ck.planForced(int(d), b)
		}
	}
}

// finalAt returns the effective final of region r, or -1: the last one
// added, matching Schedule.Instantiate's overwrite semantics.
func (ck *walkChecker) finalAt(r int) int {
	f := ck.finals.row(r)
	if len(f) == 0 {
		return -1
	}
	return int(f[len(f)-1])
}

// forcedAfter reports whether op b can never complete before op a, under
// any interleaving consistent with the dependencies. The memo holds results
// for the current b (one generation per top-level call).
func (ck *walkChecker) forcedAfter(a, b int) bool {
	if a == b || ck.reaches(a, b) {
		return true
	}
	op := &ck.p.Ops[a]
	if !op.Marker() {
		return false
	}
	if len(ck.p.Deps(a)) == 0 {
		return true // completes at time zero
	}
	if ck.forcedGen[a] == ck.forcedCall {
		return ck.forcedVal[a]
	}
	ck.forcedGen[a], ck.forcedVal[a] = ck.forcedCall, true // a DAG never re-enters a
	out := true
	for _, d := range ck.p.Deps(a) {
		if !ck.forcedAfter(int(d), b) {
			out = false
			break
		}
	}
	ck.forcedVal[a] = out
	return out
}

// hubLabels fills ck.down from the hubs topoSort found, in one reverse
// sweep; without hubs both labels stay nil.
func (ck *walkChecker) hubLabels() {
	if ck.up == nil {
		return
	}
	ck.down = make([]uint64, len(ck.topo))
	for i, h := range ck.hubs {
		ck.down[h] = 1 << uint(i)
	}
	for k := len(ck.topo) - 1; k >= 0; k-- {
		id := ck.topo[k]
		for _, d := range ck.dependents.row(int(id)) {
			ck.down[id] |= ck.down[d]
		}
	}
}

// dependsOn reports whether b lists a among its direct dependencies. It
// scans a's row of the compact dependents index rather than b's Deps, which
// would pull b's whole Op into cache for one comparison.
func (ck *walkChecker) dependsOn(b, a int) bool {
	for _, d := range ck.dependents.row(a) {
		if int(d) == b {
			return true
		}
	}
	return false
}

// settled reports whether a reaches b without consulting any closure: a
// direct dependency or a hub witness.
func (ck *walkChecker) settled(a, b int) bool {
	return (ck.up != nil && ck.down[a]&ck.up[b] != 0) || ck.dependsOn(b, a)
}

// enqueue queues the question (a, b), with pos[a] < pos[b], for the band.
func (ck *walkChecker) enqueue(a, b int) {
	pa, pb := ck.pos[a], ck.pos[b]
	ck.queries = append(ck.queries, query{pa, pb})
	if ck.hz[pa] < pb {
		ck.hz[pa] = pb
	}
}

// ask records that a class needs "a reaches b". It returns false only when
// the answer is already known to be no; a queued question is answered by
// answered once the closure exists. With the closure already built
// (CheckDeep) it answers at once.
func (ck *walkChecker) ask(a, b int) bool {
	switch {
	case ck.pos[b] <= ck.pos[a]:
		return false
	case ck.rowOff != nil: // the closure is built
		return ck.reaches(a, b)
	case ck.settled(a, b):
		return true
	}
	ck.enqueue(a, b)
	return true
}

// answered reports whether every question queued in ck.queries[from:to]
// holds in the band.
func (ck *walkChecker) answered(from, to int) bool {
	for _, q := range ck.queries[from:to] {
		if !ck.bandBit(int(q.a), int(q.b)) {
			return false
		}
	}
	return true
}

// buildClosure computes the closure rows for the current horizons, or the
// full triangle when there are none. Planned horizons are first pushed
// forward along every dependency edge; that pass also lays out the rows,
// since a position's horizon is final once its predecessors are done.
func (ck *walkChecker) buildClosure() {
	n := len(ck.topo)
	full := ck.hz == nil
	if full {
		ck.hz = make([]int32, n)
		for k := range ck.hz {
			ck.hz[k] = int32(n - 1)
		}
	}
	ck.rowOff = make([]int, n+1)
	for k, id := range ck.topo {
		h := ck.hz[k]
		ck.rowOff[k+1] = ck.rowOff[k] + rowWords(k, int(h))
		if full {
			continue
		}
		for _, d := range ck.dependents.row(int(id)) {
			if pd := ck.pos[d]; ck.hz[pd] < h {
				ck.hz[pd] = h
			}
		}
	}
	ck.closure = make([]uint64, ck.rowOff[n])
	for k := n - 1; k >= 0; k-- {
		row, base, hz := ck.row(k), k>>6, ck.hz[k]
		if len(row) == 0 {
			continue
		}
		for _, d := range ck.dependents.row(int(ck.topo[k])) {
			pd := ck.pos[d]
			if pd > hz {
				continue // past the band, and so are all of d's descendants
			}
			wi, bit := int(pd>>6)-base, uint64(1)<<uint(pd&63)
			if row[wi]&bit != 0 {
				continue // reached through an earlier dependent, whose row holds d's
			}
			row[wi] |= bit
			src := ck.row(int(pd))
			dst := row[wi:]
			if len(src) > len(dst) {
				src = src[:len(dst)]
			}
			for j, x := range src {
				dst[j] |= x
			}
		}
	}
}

// row returns position k's closure row; word i covers positions
// 64*((k>>6)+i) onward.
func (ck *walkChecker) row(k int) []uint64 {
	return ck.closure[ck.rowOff[k]:ck.rowOff[k+1]]
}

// bandBit tests position pb in position pa's row; pa < pb <= hz[pa].
func (ck *walkChecker) bandBit(pa, pb int) bool {
	return ck.closure[ck.rowOff[pa]+pb>>6-pa>>6]&(1<<uint(pb&63)) != 0
}

// reaches reports whether a dependency path a -> ... -> b exists (b
// transitively depends on a). A question outside the band that no direct
// dependency settles was not planned; it rebuilds the closure as the full
// triangle, so every answer is exact whatever was planned.
func (ck *walkChecker) reaches(a, b int) bool {
	pa, pb := int(ck.pos[a]), int(ck.pos[b])
	if pb <= pa {
		return false
	}
	if ck.up != nil && ck.down[a]&ck.up[b] != 0 {
		return true
	}
	if pb > int(ck.hz[pa]) {
		if ck.dependsOn(b, a) {
			return true
		}
		ck.hz = nil
		ck.buildClosure()
	}
	return ck.bandBit(pa, pb)
}

// pathBetween reports a dependency path in either direction.
func (ck *walkChecker) pathBetween(a, b int) bool {
	if ck.pos[a] > ck.pos[b] {
		a, b = b, a
	}
	return ck.reaches(a, b)
}

// walkCheck runs the walk checker's Check.
func walkCheck(p *Program) *Report {
	ck := newWalkChecker(p)
	ck.plan = true
	ck.structure()
	ck.r.Checked = append(ck.r.Checked, ClassStructure)
	if !ck.r.OK() {
		return ck.r
	}
	ck.hubLabels()
	ck.indexReaders()
	ck.links()
	ck.r.Checked = append(ck.r.Checked, ClassLink)
	haz := ck.planHazards()
	cons := ck.planConservation()
	if p.InOrder {
		ck.order(true)
	}
	ck.buildClosure()
	ck.hazards(haz)
	ck.r.Checked = append(ck.r.Checked, ClassHazard)
	ck.conservation(cons)
	ck.r.Checked = append(ck.r.Checked, ClassConservation)
	if p.InOrder {
		ck.order(false)
		ck.r.Checked = append(ck.r.Checked, ClassOrder)
	}
	return ck.r
}
