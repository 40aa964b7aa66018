package schedcheck

import (
	"fmt"
	"math/bits"
	"sync"

	"ccube/internal/topology"
)

// checker carries one verification run. Every entry point takes one from
// checkers and puts it back, so each slice below is scratch: resliced to the
// program at hand, grown to the largest program the checker has seen, and
// never referenced by the Report it returns.
//
// The decode pass (structure) reads each Op once, in id order, and leaves
// the compact columns and counts every later pass works from; a passing
// Check never reads the Ops again. Buffer regions are dense and
// chunk-major, as the sweep visits them: region c*len(Nodes)+ni is
// participant index ni's storage for chunk c. Relay slots are numbered
// densely in op order.
type checker struct {
	p *Program
	r *Report

	nodeIdx []int32 // NodeID -> index in p.Nodes, -1 for non-participants

	// Op columns, indexed by op id. src and dst are valid for transfers
	// only: a region, or a relay slot written as its complement (^owner for
	// the slot an op reads, ^slot for the one a relay hop writes).
	kind       []opKind
	chunk      []int32
	src, dst   []int32
	finNext    []int32    // next op marking the same region ready, in id order, or -1
	nread      []int32    // how many ops read the op's relay slot
	deps       csr[int32] // row i = op i's deps: the program's own CSR, not scratch
	dependents csr[int32] // row i = ops listing i as a dep, in id order
	relays     []int32    // slot -> the relay hop owning it

	// Region columns, indexed by region. finFirst and finLast are the
	// first and last op marking the region ready, or -1; accOff[r] is where
	// region r's accesses start in acc, counted by the decode pass.
	finFirst, finLast []int32
	accOff            []int32

	// The sweep's state (sweep): region r's accesses land in acc in
	// topological order, and runs[r] tracks its last two runs; sets holds a
	// contribution set per region and then per relay slot.
	acc  []int32
	runs []regionRuns
	sets []uint64

	topo []int32     // chunk-priority topological order of op ids
	pos  []int32     // pos[id] = position of op id in topo; aliases q.next
	q    chunkQueues // Kahn's ready set

	// Reachability (bitset.go). plan selects the planned mode and full the
	// full triangle; hubs are the barrier hubs' op ids and up and down their
	// labels (meaningful only when there are hubs); hz, rowOff and closure
	// are the band. haz, cons, ord and exact hold the questions each plan
	// queued for it.
	plan, full            bool
	hubs                  []int32
	up, down              []uint64
	hz                    []int32 // aliases the in-degrees Kahn's sort used up
	rowOff                []int
	closure               []uint64
	haz, cons, ord, exact pending

	// The order proof's forcedAfter memo: a generation stamp and a result
	// per op, the result valid while the stamp is the current generation.
	forcedGen  []int32
	forcedVal  []bool
	forcedCall int32

	// Reporting: the decode pass's link violations, held until structure
	// passes; the exact passes' access index (per region, in id order); and
	// conservation's exact pass, its writes per region in sweep order and
	// its contribution counts.
	linkV  []Violation
	accID  csr[access]
	writes csr[int32]
	counts []int32
}

// opKind is what an op does, decoded once from its buffers.
type opKind uint8

const (
	kBarrier opKind = iota // marker announcing nothing: a barrier hub candidate
	kMarker                // marker announcing a final
	kRelay                 // detour hop into its own relay slot
	kReduce                // accumulation into a region
	kCopy                  // overwrite of a region
)

func (k opKind) marker() bool { return k <= kMarker }

// regionRuns is one region's place in the hazard run walk (sweep): its
// accesses so far are acc[accOff[r]:end], the current run starts at cur
// and the previous one at prev, and kind is the current run's access kind.
type regionRuns struct {
	end, cur, prev int32
	kind           accessKind
}

var checkers = sync.Pool{New: func() any { return new(checker) }}

// getChecker takes a pooled checker and points it at p with a fresh Report.
// Its scratch is resized by the passes that use it.
func getChecker(p *Program) *checker {
	ck := checkers.Get().(*checker)
	ck.p = p
	ck.r = &Report{NumOps: len(p.Ops), Checked: make([]Class, 0, numClasses)}
	ck.plan, ck.full = false, false
	ck.hubs = ck.hubs[:0]
	ck.haz.reset()
	ck.cons.reset()
	ck.ord.reset()
	ck.exact.reset()
	ck.forcedCall = 0
	return ck
}

// release returns ck to the pool. The Report stays with the caller.
func (ck *checker) release() {
	ck.p, ck.r = nil, nil
	ck.deps = csr[int32]{}
	clear(ck.linkV)
	ck.linkV = ck.linkV[:0]
	checkers.Put(ck)
}

// grow returns s resliced to length n, reallocating only when its capacity
// is short. The contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// zeroed returns s grown to length n and cleared.
func zeroed[T any](s []T, n int) []T {
	s = grow(s, n)
	clear(s)
	return s
}

// filled returns s grown to length n with every element set to v.
func filled[T any](s []T, n int, v T) []T {
	s = grow(s, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func (ck *checker) fail(class Class, op int, format string, args ...any) {
	ck.r.Violations = append(ck.r.Violations, violation(class, op, format, args...))
}

func violation(class Class, op int, format string, args ...any) Violation {
	return Violation{Class: class, Op: op, Msg: fmt.Sprintf(format, args...)}
}

func (ck *checker) participant(n topology.NodeID) bool {
	return n >= 0 && int(n) < len(ck.nodeIdx) && ck.nodeIdx[n] >= 0
}

// region returns the dense index of participant n's storage for chunk c.
func (ck *checker) region(n topology.NodeID, c int) int {
	return c*len(ck.p.Nodes) + int(ck.nodeIdx[n])
}

// csr is a compressed row index: row i holds items[off[i]:off[i+1]].
type csr[T any] struct {
	off   []int32
	items []T
}

func (c *csr[T]) row(i int) []T { return c.items[c.off[i]:c.off[i+1]] }

// build indexes n rows from visit into c's own storage. visit must emit the
// same (row, item) sequence on both of its calls: the first counts, the
// second fills. Items keep their emission order within a row.
func (c *csr[T]) build(n int, visit func(emit func(row int, item T))) {
	off := zeroed(c.off, n+1)
	visit(func(row int, _ T) { off[row+1]++ })
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	items := grow(c.items, int(off[n]))
	// off[row] is row's fill cursor; filled, it has advanced to the row's
	// end, so shifting the array by one restores the starts.
	visit(func(row int, item T) {
		items[off[row]] = item
		off[row]++
	})
	copy(off[1:], off[:n])
	off[0] = 0
	c.off, c.items = off, items
}

// label renders an op for messages.
func (ck *checker) label(id int) string {
	return fmt.Sprintf("#%d(%s)", id, ck.p.Label(id))
}

// --- structure: the decode pass --------------------------------------------

// structure checks well-formedness: a dependency CSR that covers the ops,
// in-range references, relay-slot wiring, and acyclicity of the dependency
// graph. An acyclic dependency graph is deadlock-free: some op is always
// runnable until all have completed.
//
// It is also the decode pass. While no violation has been found, each op is
// decoded into the columns as it is checked (its deps are read in place
// from the program's CSR), and the same walk counts every index the later
// passes need: dependents, relay readers, region accesses, relay slots, and
// the finals list of every region. With links set, the walk also runs each
// op's link checks into ck.linkV, for reportLinks.
func (ck *checker) structure(links bool) {
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
	ck.nodeIdx = filled(ck.nodeIdx, nn, -1)
	for i, n := range p.Nodes {
		if n < 0 || int(n) >= nn {
			ck.fail(ClassStructure, -1, "participant %d is node %d, outside the graph's %d nodes", i, n, nn)
			continue
		}
		ck.nodeIdx[n] = int32(i)
	}
	n, nr, nch := len(p.Ops), len(p.Nodes)*p.NumChunks, p.Graph.NumChannels()
	if len(p.DepOff) != n+1 || p.DepOff[0] != 0 || int(p.DepOff[n]) != len(p.DepList) {
		ck.fail(ClassStructure, -1, "dependency offsets do not cover %d ops and %d deps", n, len(p.DepList))
		return
	}
	ck.kind = grow(ck.kind, n)
	ck.chunk = grow(ck.chunk, n)
	ck.src = grow(ck.src, n)
	ck.dst = grow(ck.dst, n)
	ck.finNext = grow(ck.finNext, n)
	ck.nread = zeroed(ck.nread, n)
	ck.dependents.off = zeroed(ck.dependents.off, n+1)
	ck.relays = ck.relays[:0]
	ck.finFirst = filled(ck.finFirst, nr, -1)
	ck.finLast = filled(ck.finLast, nr, -1)
	ck.accOff = zeroed(ck.accOff, nr+1)
	depCount := ck.dependents.off
	for i := range p.Ops {
		op := &p.Ops[i]
		lo, hi := p.DepOff[i], p.DepOff[i+1]
		if hi < lo || int(hi) > len(p.DepList) {
			ck.fail(ClassStructure, i, "dependency offsets [%d,%d) out of order", lo, hi)
			return // rows are read in place everywhere; stop early
		}
		if op.Chunk < 0 || int(op.Chunk) >= p.NumChunks {
			ck.fail(ClassStructure, i, "chunk %d out of range [0,%d)", op.Chunk, p.NumChunks)
		}
		for _, d := range p.DepList[lo:hi] {
			if d < 0 || int(d) >= n {
				ck.fail(ClassStructure, i, "dependency %d out of range", d)
				return
			}
			if int(d) == i {
				ck.fail(ClassStructure, i, "op depends on itself")
				return
			}
			depCount[d+1]++
		}
		if op.Final != -1 && !ck.participant(op.FinalNode()) {
			ck.fail(ClassStructure, i, "final node %d is not a participant", op.Final)
		}
		if op.Marker() {
			if !op.Src.IsNone() || !op.Dst.IsNone() {
				ck.fail(ClassStructure, i, "marker touches buffers")
			}
			if ck.r.OK() {
				ck.kind[i] = kMarker
				if op.Final < 0 {
					ck.kind[i] = kBarrier
				}
				ck.decodeFinal(i, op)
			}
			continue
		}
		if op.Bytes <= 0 {
			ck.fail(ClassStructure, i, "transfer moves %d bytes", op.Bytes)
		}
		if int(op.Channel) >= nch {
			ck.fail(ClassStructure, i, "channel %d does not exist (%d channels)", op.Channel, nch)
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
			if int(r) >= n {
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
		if !ck.r.OK() {
			continue // the columns are only read once every op passes
		}
		ck.decodeTransfer(i, op)
		ck.decodeFinal(i, op)
		if links {
			ck.linkOp(i)
		}
	}
	ck.deps = csr[int32]{off: p.DepOff, items: p.DepList}
	if !ck.r.OK() {
		return
	}
	for r := 0; r < nr; r++ {
		ck.accOff[r+1] += ck.accOff[r]
	}
	ck.topoSort()
}

// decodeTransfer fills op i's kind, src and dst columns and counts
// its region accesses, relay read and relay slot. An op whose source and
// destination are the same region accesses it once, with its (stronger)
// write kind.
func (ck *checker) decodeTransfer(i int, op *Op) {
	c := int(op.Chunk)
	var s, d int32
	if op.Src.IsRelay() {
		s = ^op.Src.Relay
		ck.nread[op.Src.Relay]++
	} else {
		s = int32(ck.region(op.Src.NodeID(), c))
	}
	switch {
	case op.Dst.IsRelay():
		ck.kind[i] = kRelay
		d = ^int32(len(ck.relays))
		ck.relays = append(ck.relays, int32(i))
	case op.Accumulate:
		ck.kind[i] = kReduce
	default:
		ck.kind[i] = kCopy
	}
	if d >= 0 {
		d = int32(ck.region(op.Dst.NodeID(), c))
		ck.accOff[d+1]++
	}
	if s >= 0 && s != d {
		ck.accOff[s+1]++
	}
	ck.src[i], ck.dst[i] = s, d
}

// decodeFinal fills op i's chunk column (markers have no other) and appends
// it to the finals list of the region it marks ready.
func (ck *checker) decodeFinal(i int, op *Op) {
	ck.chunk[i] = op.Chunk
	ck.finNext[i] = -1
	if op.Final < 0 {
		return
	}
	r := ck.region(op.FinalNode(), int(op.Chunk))
	if ck.finFirst[r] < 0 {
		ck.finFirst[r] = int32(i)
	} else {
		ck.finNext[ck.finLast[r]] = int32(i)
	}
	ck.finLast[r] = int32(i)
}

// topoSort fills ck.dependents, ck.topo and ck.pos or reports a cycle. It
// is Kahn's algorithm with the lowest ready chunk always going first (FIFO
// within a chunk), so a chunk's ops sit together wherever the dependencies
// allow and the reachability band stays about one chunk wide. In the
// planned mode the same sweep hands out the barrier hub bits, propagates
// the up labels and sets every horizon to its floor.
func (ck *checker) topoSort() {
	n := len(ck.p.Ops)
	// The dependents index transposes the deps column; the decode pass
	// counted its rows. The in-degrees come from the deps rows. The hot
	// loops below work on local copies of the slices they touch.
	off, depOff, depItems, chunk := ck.dependents.off, ck.deps.off, ck.deps.items, ck.chunk
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	items := grow(ck.dependents.items, int(off[n]))
	indeg := grow(ck.hz, n)
	q := ck.q
	q.reset(n, ck.p.NumChunks)
	for i := 0; i < n; i++ {
		row := depItems[depOff[i]:depOff[i+1]]
		for _, d := range row {
			items[off[d]] = int32(i)
			off[d]++
		}
		if indeg[i] = int32(len(row)); indeg[i] == 0 {
			q.push(int32(i), chunk[i])
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	ck.dependents.items = items
	order, up, hubs, kind := grow(ck.topo, n)[:0], ck.up, ck.hubs, ck.kind
	for id := q.pop(); id >= 0; id = q.pop() {
		order = append(order, id)
		if ck.plan && kind[id] == kBarrier && len(hubs) < 64 {
			if len(hubs) == 0 {
				up = zeroed(up, n) // no op before the first hub has a label
			}
			up[id] |= 1 << uint(len(hubs))
			hubs = append(hubs, id)
		}
		var lab uint64
		if len(hubs) > 0 {
			lab = up[id]
		}
		for _, dep := range items[off[id]:off[id+1]] {
			if lab != 0 {
				up[dep] |= lab
			}
			if indeg[dep]--; indeg[dep] == 0 {
				q.push(dep, chunk[dep])
			}
		}
	}
	ck.q, ck.topo, ck.hz, ck.up, ck.hubs = q, order, indeg, up, hubs
	if len(order) != n {
		ck.fail(ClassStructure, -1,
			"dependency cycle: only %d of %d ops can execute (deadlock)", len(order), n)
		return
	}
	ck.pos = q.next // every op is placed, so its queue link is free
	for k, id := range order {
		ck.pos[id] = int32(k)
		if ck.plan {
			indeg[k] = int32(k) // the horizons' floor; the in-degrees are all zero
		}
	}
}

// chunkQueues is Kahn's ready set for topoSort: one FIFO per chunk, threaded
// through next, and a bitmap of the chunks whose FIFO is non-empty.
type chunkQueues struct {
	head, tail, next []int32
	ready            []uint64
	lo               int // every word of ready below lo is zero
}

// reset empties the queues for ops ops over chunks chunks.
func (q *chunkQueues) reset(ops, chunks int) {
	q.head = filled(q.head, chunks, -1)
	q.tail = grow(q.tail, chunks)
	q.next = grow(q.next, ops)
	q.ready = zeroed(q.ready, (chunks+63)>>6)
	q.lo = 0
}

func (q *chunkQueues) push(id, c int32) {
	q.next[id] = -1
	if q.head[c] < 0 {
		q.head[c] = id
		q.ready[c>>6] |= 1 << uint(c&63)
		q.lo = min(q.lo, int(c>>6))
	} else {
		q.next[q.tail[c]] = id
	}
	q.tail[c] = id
}

// pop removes the head of the lowest non-empty chunk's FIFO, or returns -1.
func (q *chunkQueues) pop() int32 {
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

// linkOp runs the link checks of one transfer into ck.linkV: every transfer
// rides a real physical channel whose endpoints match its buffers, and
// detour routes are contiguous chains of real links forwarded by GPUs
// (paper §IV-A: static routing kernels run on intermediate GPUs, never on
// switches or phantom links). The decode pass runs it on every op it
// decodes and CheckPatch on the ops a patch touched. The relay slot's
// never-read check needs every reader counted, so it is left to the caller
// (neverRead).
func (ck *checker) linkOp(i int) {
	p := ck.p
	op := &p.Ops[i]
	if op.Marker() {
		return
	}
	ch := p.Graph.Channel(op.ChannelID())
	if ch.Down() {
		ck.linkFail(i, "channel %d (%s->%s) is down: schedule needs repair",
			op.Channel, p.Graph.Node(ch.From).Name, p.Graph.Node(ch.To).Name)
	}
	if op.Src.IsNode() && ch.From != op.Src.NodeID() {
		ck.linkFail(i, "channel %d starts at node %d but source buffer is on node %d",
			op.Channel, ch.From, op.Src.Node)
	}
	// In the decode pass a relay slot's owner may come later in id order,
	// still unchecked. One that rides no channel fails structure on its own,
	// and then no link violation is reported.
	if r := op.Src.Relay; r >= 0 && p.Ops[r].Channel >= 0 && int(p.Ops[r].Channel) < p.Graph.NumChannels() {
		owner := &p.Ops[r]
		ownerCh := p.Graph.Channel(owner.ChannelID())
		if ownerCh.To != ch.From {
			ck.linkFail(i,
				"detour discontinuity: previous hop %s lands at node %d, this hop departs node %d",
				ck.label(int(r)), ownerCh.To, ch.From)
		}
		// Chunk identity must survive the relay: contribution counts cannot
		// tell two fully-reduced chunks apart, so forwarding chunk X's bytes
		// into chunk Y's region would otherwise pass conservation unnoticed.
		if owner.Chunk != op.Chunk {
			ck.linkFail(i,
				"detour forwards chunk %d data from %s as chunk %d",
				owner.Chunk, ck.label(int(r)), op.Chunk)
		}
	}
	if op.Dst.IsNode() && ch.To != op.Dst.NodeID() {
		ck.linkFail(i, "channel %d ends at node %d but destination buffer is on node %d",
			op.Channel, ch.To, op.Dst.Node)
	}
	if op.Dst.IsRelay() && p.Graph.Node(ch.To).Kind != topology.GPU {
		ck.linkFail(i, "detour intermediate %s is not a GPU (forwarding kernels run on GPUs)",
			p.Graph.Node(ch.To).Name)
	}
}

func (ck *checker) linkFail(op int, format string, args ...any) {
	ck.linkV = append(ck.linkV, violation(ClassLink, op, format, args...))
}

// neverRead is the link violation of relay hop i when no op reads its slot.
func (ck *checker) neverRead(i int) Violation {
	ch := ck.p.Graph.Channel(ck.p.Ops[i].ChannelID())
	return violation(ClassLink, i, "relay slot is never read: detour data dropped at %s",
		ck.p.Graph.Node(ch.To).Name)
}

// reportLinks reports the link class from the decode pass's findings, each
// unread relay slot's violation after the other violations of its op.
func (ck *checker) reportLinks() {
	j := 0
	for _, id := range ck.relays {
		if ck.nread[id] > 0 {
			continue
		}
		for ; j < len(ck.linkV) && ck.linkV[j].Op <= int(id); j++ {
			ck.r.Violations = append(ck.r.Violations, ck.linkV[j])
		}
		ck.r.Violations = append(ck.r.Violations, ck.neverRead(int(id)))
	}
	ck.r.Violations = append(ck.r.Violations, ck.linkV[j:]...)
}

// --- the planned sweep: hazards and conservation ---------------------------

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

// writeKind is how an op of kind k touches its destination region.
func writeKind(k opKind) accessKind {
	if k == kReduce {
		return accAccum
	}
	return accCopy
}

// pending is what a class's plan leaves for its report: the questions it
// queued for the band, and whether it already knows the class cannot pass
// as planned.
type pending struct {
	queries []query
	failed  bool
}

func (pd *pending) reset() { pd.queries, pd.failed = pd.queries[:0], false }

// passes reports whether the plan proved the class: nothing failed and the
// band confirms every queued question.
func (ck *checker) passes(pd *pending) bool {
	return !pd.failed && ck.answered(pd.queries)
}

// sweep plans the hazard and conservation classes in one pass over the
// columns in topological order.
//
// Hazards: for every pair of operations touching the same buffer region,
// where the pair does not commute (anything but read/read or
// accumulate/accumulate), a dependency path must order them. That is what
// makes the C1 overlap trustworthy: a broadcast reading a chunk that some
// reduction can still write, under any interleaving, fails here. Relay slots
// additionally require the reader to be ordered after the writer
// (read-after-write), not merely ordered. All pairs need not be asked: in
// topological order, a region's accesses fall into maximal runs of mutually
// compatible accesses (reads, or accumulations; each copy is a run of its
// own). Two adjacent runs always conflict pairwise, so they must be
// ordered; and once every adjacent pair is ordered, any conflicting pair
// further apart is ordered through any op of each run in between. So each
// access asks only about the run before its own, which runs[r] keeps.
//
// Conservation: an abstract interpretation of the schedule's data semantics
// over contribution sets. Buffer state is "which participants' inputs are
// summed here"; copies clone it, accumulations add it. Because the hazard
// check proves all non-commuting conflicting accesses are ordered (and the
// remaining unordered pairs — concurrent accumulations — commute), any
// topological order yields the same end state, so one sweep is a proof, not
// a sample. The class rejects chunks reduced twice, missing or duplicated
// contributions under the AllReduce contract, (node, chunk) pairs that
// never become ready, and readiness markers not ordered after the writes
// they announce. Each region and relay slot holds a ⌈P/64⌉-word set, and
// accumulation is an overlap test plus OR. While no accumulation overlaps,
// every count is 0 or 1 and the sets are the count vectors exactly; the
// first overlap, like any other failure, leaves the report to
// conservation's exact pass.
func (ck *checker) sweep() {
	p := ck.p
	np, nr := len(p.Nodes), len(p.Nodes)*p.NumChunks
	haz, cons := &ck.haz, &ck.cons
	ck.acc = grow(ck.acc, int(ck.accOff[nr]))
	ck.runs = grow(ck.runs, nr)
	for r := range ck.runs {
		ck.runs[r] = regionRuns{end: ck.accOff[r], cur: ck.accOff[r], prev: ck.accOff[r]}
	}
	// One arena: a set per region, starting with the participant's own
	// input, then a set per relay slot (empty until written: an empty-slot
	// read is already a hazard violation).
	w := (np + 63) >> 6
	ck.sets = zeroed(ck.sets, (nr+len(ck.relays))*w)
	for r := 0; r < nr; r++ {
		ni := r % np
		ck.sets[r*w+ni>>6] |= 1 << uint(ni&63)
	}
	kind, src, dst, sets, finFirst, finNext := ck.kind, ck.src, ck.dst, ck.sets, ck.finFirst, ck.finNext
	for _, y := range ck.topo {
		kd := kind[y]
		if kd.marker() {
			continue
		}
		s, d := src[y], dst[y]
		var from int // the word offset of the set read
		if s < 0 {
			owner := ^s
			if !haz.failed && !ck.ask(owner, y, haz) {
				haz.failed = true // read before the write
			}
			from = (nr + int(^dst[owner])) * w
		} else {
			if s != d && !haz.failed {
				ck.access(s, y, accRead)
			}
			from = int(s) * w
		}
		if kd == kRelay {
			to := (nr + int(^d)) * w
			copy(sets[to:to+w], sets[from:from+w])
			continue
		}
		if !haz.failed {
			ck.access(d, y, writeKind(kd))
		}
		to := int(d) * w
		if kd == kCopy {
			copy(sets[to:to+w], sets[from:from+w])
		} else if ck.accumulate(to, from, w) {
			cons.failed = true
		}
		if p.AllReduce {
			// Readiness must come after the data: every write to the region
			// has to be ordered before every final op announcing it.
			for f := finFirst[d]; f >= 0; f = finNext[f] {
				if f != y && !ck.ask(y, f, cons) {
					cons.failed = true
				}
			}
		}
	}
	for r := 0; r < nr; r++ {
		if ck.finFirst[r] < 0 || p.AllReduce && !fullSet(ck.sets[r*w:(r+1)*w], np) {
			cons.failed = true
		}
	}
}

// accumulate ORs the w-word set at from into the one at to, reporting
// whether they overlapped: a contribution summed twice.
func (ck *checker) accumulate(to, from, w int) bool {
	if w == 1 {
		x := ck.sets[from]
		overlap := ck.sets[to]&x != 0
		ck.sets[to] |= x
		return overlap
	}
	overlap := false
	for j, x := range ck.sets[from : from+w] {
		overlap = overlap || ck.sets[to+j]&x != 0
		ck.sets[to+j] |= x
	}
	return overlap
}

// access records op y's access of kind k to region r, asking that every
// access of the region's previous run reaches it. A failed answer (possible
// only with the closure built, under CheckDeep) fails the hazard plan.
func (ck *checker) access(r, y int32, k accessKind) {
	rr := &ck.runs[r]
	if rr.end == rr.cur || k == accCopy || k != rr.kind {
		rr.prev, rr.cur, rr.kind = rr.cur, rr.end, k
	}
	for _, x := range ck.acc[rr.prev:rr.cur] {
		// x came first in the sweep, so only a built closure can say no.
		if !ck.plan {
			ck.haz.failed = ck.haz.failed || !ck.reaches(int(x), int(y))
		} else if !ck.settled(x, y) {
			ck.enqueue(x, y, &ck.haz)
		}
	}
	ck.acc[rr.end] = y
	rr.end++
}

// fullSet reports whether s holds exactly the indices 0..n-1.
func fullSet(s []uint64, n int) bool {
	for i, x := range s {
		want := ^uint64(0)
		if rem := n - 64*i; rem < 64 {
			want = 1<<uint(rem) - 1
		}
		if x != want {
			return false
		}
	}
	return true
}

// --- exact reporting --------------------------------------------------------

// report runs the exact passes of the classes the plan did not prove, so
// their violations come out as the all-pairs definitions have them. Every
// question an exact pass asks is planned first: the hazard pass's by a dry
// run of it, conservation's are the ones its planned sweep already queued.
// The band is then rebuilt once for all of them, so a failing program is
// verified in about the band a passing one needs, not the full triangle.
func (ck *checker) report() {
	exactHaz, exactCons := !ck.passes(&ck.haz), !ck.passes(&ck.cons)
	if exactHaz {
		ck.indexAccesses()
		if ck.plan {
			ck.hazards(false)
			if len(ck.exact.queries) > 0 {
				ck.buildClosure()
			}
		}
		ck.hazards(true)
	}
	ck.r.Checked = append(ck.r.Checked, ClassHazard)
	if exactCons {
		ck.conservation()
	}
	ck.r.Checked = append(ck.r.Checked, ClassConservation)
}

// indexAccesses fills ck.accID: per region, the ops touching it in id order.
// Relay slots are not regions: each has a single writer by construction and
// is checked against its readers.
func (ck *checker) indexAccesses() {
	nr := len(ck.p.Nodes) * ck.p.NumChunks
	ck.accID.build(nr, func(emit func(int, access)) {
		for i, kd := range ck.kind {
			if kd.marker() {
				continue
			}
			s, d := ck.src[i], ck.dst[i]
			if s >= 0 && s != d {
				emit(int(s), access{op: int32(i), kind: accRead})
			}
			if d >= 0 {
				emit(int(d), access{op: int32(i), kind: writeKind(kd)})
			}
		}
	})
}

// hazards is the hazard class's exact pass: every relay read against its
// writer, in op order, then every conflicting pair of every region, in
// region order and id order within it. With reporting unset it only plans
// the questions (need) for the band the reporting run answers them from.
func (ck *checker) hazards(reporting bool) {
	p := ck.p
	for i, kd := range ck.kind {
		if kd.marker() || ck.src[i] >= 0 {
			continue
		}
		r := int(^ck.src[i])
		if !reporting {
			ck.need(r, i)
		} else if !ck.reaches(r, i) {
			ck.fail(ClassHazard, i, "reads relay slot of %s without depending on it", ck.label(r))
		}
	}
	np := len(p.Nodes)
	for ni := range p.Nodes { // regions in report order: by participant, then chunk
		for c := 0; c < p.NumChunks; c++ {
			list := ck.accID.row(c*np + ni)
			for a := 0; a < len(list); a++ {
				for b := a + 1; b < len(list); b++ {
					if compatible(list[a].kind, list[b].kind) {
						continue
					}
					x, y := int(list[a].op), int(list[b].op)
					if !reporting {
						if ck.pos[x] > ck.pos[y] {
							ck.need(y, x)
						} else {
							ck.need(x, y)
						}
					} else if !ck.pathBetween(x, y) {
						ck.fail(ClassHazard, x,
							"unordered conflicting access to node %d chunk %d: %s and %s",
							p.Nodes[ni], c, ck.label(x), ck.label(y))
					}
				}
			}
		}
	}
}

// conservation is the conservation class's exact pass: it reruns the
// interpretation over contribution-count vectors (indexed by participant),
// so every report names the counts as they are: a double sum shows as a 2,
// not as a set member.
func (ck *checker) conservation() {
	p := ck.p
	np, nr := len(p.Nodes), len(p.Nodes)*p.NumChunks
	ck.counts = zeroed(ck.counts, (nr+len(ck.relays))*np)
	vec := func(i int) []int32 { return ck.counts[i*np : (i+1)*np] }
	for r := 0; r < nr; r++ {
		ck.counts[r*np+r%np] = 1
	}
	for _, t := range ck.topo {
		id := int(t)
		kd := ck.kind[id]
		if kd.marker() {
			continue
		}
		s, d := ck.src[id], ck.dst[id]
		var src []int32
		if s < 0 {
			src = vec(nr + int(^ck.dst[^s]))
		} else {
			src = vec(int(s))
		}
		if kd == kRelay {
			copy(vec(nr+int(^d)), src)
			continue
		}
		dst := vec(int(d))
		if kd == kCopy {
			copy(dst, src)
			continue
		}
		for j := range dst {
			if src[j] > 0 && dst[j] > 0 {
				ck.fail(ClassConservation, id,
					"chunk %d at node %d would sum node %d's contribution twice",
					ck.chunk[id], p.Nodes[int(d)%np], p.Nodes[j])
			}
			dst[j] += src[j]
		}
	}

	// writes lists every op writing each region, in sweep order.
	ck.writes.build(nr, func(emit func(int, int32)) {
		for _, id := range ck.topo {
			if kd := ck.kind[id]; kd == kReduce || kd == kCopy {
				emit(int(ck.dst[id]), id)
			}
		}
	})
	for ni, n := range p.Nodes { // regions in report order: by participant, then chunk
		for c := 0; c < p.NumChunks; c++ {
			r := c*np + ni
			if ck.finFirst[r] < 0 {
				ck.fail(ClassConservation, -1, "chunk %d never becomes ready at node %d", c, n)
				continue
			}
			if !p.AllReduce {
				continue
			}
			ws := ck.writes.row(r)
			if v := vec(r); !exactlyOnce(v) {
				op := -1
				if len(ws) > 0 {
					op = int(ws[len(ws)-1])
				}
				ck.fail(ClassConservation, op,
					"node %d ends chunk %d with contributions %v, want exactly one each", n, c, v)
			}
			for _, w := range ws {
				for f := ck.finFirst[r]; f >= 0; f = ck.finNext[f] {
					if f != w && !ck.reaches(int(w), int(f)) {
						ck.fail(ClassConservation, int(f),
							"chunk %d marked ready at node %d without depending on write %s",
							c, n, ck.label(int(w)))
					}
				}
			}
		}
	}
}

// exactlyOnce reports whether every count in v is 1.
func exactlyOnce(v []int32) bool {
	for _, c := range v {
		if c != 1 {
			return false
		}
	}
	return true
}

// --- in-order proof --------------------------------------------------------

// order proves the schedule's InOrder claim — the property gradient queuing
// (C2) builds on: at every node, within each of the Streams round-robin
// chunk streams, chunk c cannot complete before chunk c-Streams under any
// interleaving. "Cannot complete before" is forcedAfter: either a
// dependency path exists, or the earlier final is a zero-cost marker whose
// every dependency is itself forced before the later final (markers finish
// the instant their inputs do, so they inherit their inputs' ordering).
//
// With planning set it proves nothing yet: it queues every question
// forcedAfter can ask, through planForced, for the band the proof will run
// on.
func (ck *checker) order(planning bool) {
	p := ck.p
	k := p.NumChunks
	streams := max(p.Streams, 1)
	if ck.forcedCall == 0 {
		ck.forcedGen = zeroed(ck.forcedGen, len(p.Ops))
		ck.forcedVal = grow(ck.forcedVal, len(p.Ops))
	}
	for ni := range p.Nodes {
		for c := streams; c < k; c++ {
			prev, cur := ck.finLast[(c-streams)*len(p.Nodes)+ni], ck.finLast[c*len(p.Nodes)+ni]
			if prev < 0 || cur < 0 {
				continue // missing finals already reported by conservation
			}
			ck.forcedCall++
			if planning {
				ck.planForced(int(prev), int(cur))
			} else if !ck.forcedAfter(int(prev), int(cur)) {
				ck.fail(ClassOrder, int(cur),
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
func (ck *checker) planForced(a, b int) {
	if a == b {
		return
	}
	if ck.pos[a] < ck.pos[b] {
		if ck.settled(int32(a), int32(b)) {
			return // forcedAfter answers at reaches, without the marker chain
		}
		ck.enqueue(int32(a), int32(b), &ck.ord)
	}
	if !ck.kind[a].marker() {
		return
	}
	for _, d := range ck.deps.row(a) {
		if ck.forcedGen[d] != ck.forcedCall {
			ck.forcedGen[d] = ck.forcedCall
			ck.planForced(int(d), b)
		}
	}
}

// forcedAfter reports whether op b can never complete before op a, under
// any interleaving consistent with the dependencies. The memo holds results
// for the current b (one generation per top-level call). The effective
// final of a region is its last one, matching the executors' ChunkReady,
// where the last final wins.
func (ck *checker) forcedAfter(a, b int) bool {
	if a == b || ck.reaches(a, b) {
		return true
	}
	if !ck.kind[a].marker() {
		return false
	}
	deps := ck.deps.row(a)
	if len(deps) == 0 {
		return true // completes at time zero
	}
	if ck.forcedGen[a] == ck.forcedCall {
		return ck.forcedVal[a]
	}
	ck.forcedGen[a], ck.forcedVal[a] = ck.forcedCall, true // a DAG never re-enters a
	out := true
	for _, d := range deps {
		if !ck.forcedAfter(int(d), b) {
			out = false
			break
		}
	}
	ck.forcedVal[a] = out
	return out
}
