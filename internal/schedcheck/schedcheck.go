// Package schedcheck statically verifies collective transfer schedules.
//
// A schedule built by internal/collective is a dependency DAG of transfers
// over a physical topology. Its correctness hinges on properties of that
// DAG, not just its shape: the overlapped tree (C1) must never let a
// broadcast read a chunk a reduction is still writing, detour routes must
// traverse only real physical channels, and gradient queuing (C2) is sound
// only if the schedule provably delivers chunks in index order. Executing
// the schedule exercises one interleaving; schedcheck proves the properties
// for every interleaving, without executing anything — the same move GC3
// makes when it checks generated collective programs against the algorithm
// spec, and ForestColl when it verifies its spanning-tree schedules before
// running them.
//
// The verifier consumes a neutral intermediate representation (Program /
// Op) rather than collective's own types, so collective can depend on
// schedcheck (Schedule.Validate delegates here) without an import cycle.
// The IR is flat, as in GC3's instruction lists: an Op is a 32-byte record
// with no pointers, its id is its index, and every op's dependencies sit in
// one CSR on the Program (DepOff, DepList), read through Program.Deps. An op
// names its chunk, not a byte count: a transfer moves its chunk's size,
// Program.ChunkBytes, so one op graph serves every message size that splits
// into the same chunk count.
// Five check classes run over a Program:
//
//	structure     — dependency CSR, ranges, chunk sizes, relay-slot wiring,
//	                acyclicity (deadlock freedom of the dependency graph)
//	hazard        — for every pair of operations touching the same buffer
//	                where at least one writes, a dependency path must order
//	                them (catches C1 overlap races)
//	link          — every transfer's channel exists and is endpoint-
//	                consistent; detour hops are contiguous and forward
//	                through GPUs only
//	conservation  — every chunk is reduced exactly once per contribution
//	                and becomes ready at every participant (AllReduce
//	                contract), with readiness ordered after the last write
//	order         — if the schedule claims in-order delivery, completion
//	                dependencies must force chunk index order per stream at
//	                every node
package schedcheck

import (
	"fmt"
	"strings"

	"ccube/internal/topology"
)

// Buf names a buffer touched by an operation: a participant's gradient
// buffer region for one chunk (Node >= 0), a relay slot owned by a detour
// hop (Relay >= 0), or nothing (markers).
type Buf struct {
	Node  int32 // owning node (a topology.NodeID), or -1
	Relay int32 // id of the op owning the relay slot, or -1
}

// IsNode reports whether the buffer is a node's gradient buffer region.
func (b Buf) IsNode() bool { return b.Node >= 0 && b.Relay < 0 }

// IsRelay reports whether the buffer is a detour relay slot.
func (b Buf) IsRelay() bool { return b.Relay >= 0 }

// IsNone reports whether the op touches no buffer on this side (markers).
func (b Buf) IsNone() bool { return b.Node < 0 && b.Relay < 0 }

// NodeID returns the owning node.
func (b Buf) NodeID() topology.NodeID { return topology.NodeID(b.Node) }

// NodeBuf names node n's buffer region.
func NodeBuf(n topology.NodeID) Buf { return Buf{Node: int32(n), Relay: -1} }

// RelayBuf names the relay slot owned by op id.
func RelayBuf(id int) Buf { return Buf{Node: -1, Relay: int32(id)} }

// NoBuf is the empty buffer reference used by markers.
func NoBuf() Buf { return Buf{Node: -1, Relay: -1} }

// Op is one scheduled operation: a chunk moving over a channel, or a
// zero-cost marker (Channel < 0) joining dependencies. It is also the
// schedule IR collective builds, stores and executes. An op is 32 bytes and
// holds no pointers: its id is its index in Program.Ops, its dependencies
// live in the program's CSR (Program.Deps), a transfer moves
// Program.ChunkBytes[Chunk] bytes, and it carries no label — Program.Label
// renders one from the fields when a message needs it.
type Op struct {
	Chunk   int32
	Channel int32 // a topology.ChannelID, < 0 for markers

	Src, Dst Buf

	// Final >= 0 records that completion of this op makes chunk Chunk
	// fully reduced and available at that node (a topology.NodeID); -1
	// means none.
	Final int32

	Accumulate bool // dst += src (reduction) vs dst = src (copy/forward)

	// NoAlpha drops the channel's fixed latency from the op's cost in the
	// performance passes (contention, makespan bound), mirroring the
	// schedule's block-continuation transfers that pay only the bandwidth
	// term. It does not affect the correctness classes.
	NoAlpha bool
}

// ChannelID returns the channel the op rides; meaningful for transfers only.
func (o *Op) ChannelID() topology.ChannelID { return topology.ChannelID(o.Channel) }

// FinalNode returns the node Final marks the chunk ready at, or -1.
func (o *Op) FinalNode() topology.NodeID { return topology.NodeID(o.Final) }

// Marker reports whether the op is a zero-cost dependency join.
func (o *Op) Marker() bool { return o.Channel < 0 }

// Kind names the op's role: "marker", "relay" (a detour hop parking the
// chunk in its own relay slot), "reduce" (accumulating into a node buffer)
// or "copy" (overwriting one). The names are constants, so the timing
// engine can name its tasks by kind without formatting anything.
func (o *Op) Kind() string {
	switch {
	case o.Marker():
		return "marker"
	case o.Dst.IsRelay():
		return "relay"
	case o.Accumulate:
		return "reduce"
	default:
		return "copy"
	}
}

// Program is the verifier's view of one collective schedule.
type Program struct {
	Graph     *topology.Graph
	Nodes     []topology.NodeID // participants
	NumChunks int

	// ChunkBytes[c] is chunk c's size, the bytes every transfer of chunk c
	// moves; it has NumChunks entries.
	ChunkBytes []int64

	// InOrder is the schedule's claim that chunks complete in index order
	// at every node; the order check proves or refutes it.
	InOrder bool

	// Streams is the number of independent in-order chunk streams (the
	// tree count of a multi-tree schedule): stream of chunk c is
	// c % Streams, and order is proven within each stream. Values < 1 are
	// treated as a single stream.
	Streams int

	// AllReduce declares the schedule's data contract: every participant
	// must end holding exactly one contribution from every participant in
	// every chunk. When false (standalone primitives), the conservation
	// check still rejects double reductions and missing finals but does not
	// require the full sum.
	AllReduce bool

	// Ops is the program, op i with id i. Op i's dependencies are
	// DepList[DepOff[i]:DepOff[i+1]], read through Deps: DepOff has one
	// entry per op plus a leading 0, and ends at len(DepList).
	Ops     []Op
	DepOff  []int32
	DepList []int32
}

// Deps returns op i's dependencies, a view of the program's CSR that an
// append cannot write through.
func (p *Program) Deps(i int) []int32 {
	lo, hi := p.DepOff[i], p.DepOff[i+1]
	return p.DepList[lo:hi:hi]
}

// SetDeps replaces the program's dependencies with a fresh CSR holding
// deps[i] as op i's, for i < len(Ops).
func (p *Program) SetDeps(deps [][]int) {
	n := 0
	for i := range p.Ops {
		n += len(deps[i])
	}
	p.DepOff = make([]int32, 1, len(p.Ops)+1)
	p.DepList = make([]int32, 0, n)
	for i := range p.Ops {
		for _, d := range deps[i] {
			p.DepList = append(p.DepList, int32(d))
		}
		p.DepOff = append(p.DepOff, int32(len(p.DepList)))
	}
}

// Label renders op id for diagnostics from its fields: kind, chunk and the
// channel's endpoints, e.g. "reduce c5 3->1", "relay c5 3->2" or
// "marker c5". Labels are derived on demand and never stored. Ids and
// channels outside the program or graph render without endpoints, so
// messages about malformed programs never panic.
func (p *Program) Label(id int) string {
	if id < 0 || id >= len(p.Ops) {
		return fmt.Sprintf("op %d", id)
	}
	op := &p.Ops[id]
	if op.Marker() {
		return fmt.Sprintf("marker c%d", op.Chunk)
	}
	if p.Graph == nil || int(op.Channel) >= p.Graph.NumChannels() {
		return fmt.Sprintf("%s c%d ch%d", op.Kind(), op.Chunk, op.Channel)
	}
	ch := p.Graph.Channel(op.ChannelID())
	return fmt.Sprintf("%s c%d %d->%d", op.Kind(), op.Chunk, ch.From, ch.To)
}

// Clone returns a deep copy of p: participants, ops and the dependency
// CSR and chunk sizes, each one flat slice copy. The topology graph is shared. A program
// from Schedule.Program is a view of the schedule, possibly a cached and
// verified one, so code that edits a program edits a clone.
func (p *Program) Clone() *Program {
	out := *p
	out.Nodes = append([]topology.NodeID(nil), p.Nodes...)
	out.ChunkBytes = append([]int64(nil), p.ChunkBytes...)
	out.Ops = append([]Op(nil), p.Ops...)
	out.DepOff = append([]int32(nil), p.DepOff...)
	out.DepList = append([]int32(nil), p.DepList...)
	return &out
}

// Class identifies one of the verifier's check families.
type Class int

const (
	ClassStructure Class = iota
	ClassHazard
	ClassLink
	ClassConservation
	ClassOrder
	// ClassContention and ClassWaitFor are the performance proofs (deep.go):
	// cross-stream channel sharing and wait-for deadlock under in-order
	// channel service. They run only under CheckDeep.
	ClassContention
	ClassWaitFor
	// ClassPatch is the delta mode's mapping obligations (patch.go): every
	// base op survives, untouched ops are identical modulo renumbering, and
	// touched ops only reroute — never re-source, re-target, or un-order.
	ClassPatch
)

// numClasses is the number of check classes, the most a Report lists.
const numClasses = int(ClassPatch) + 1

func (c Class) String() string {
	switch c {
	case ClassStructure:
		return "structure"
	case ClassHazard:
		return "hazard"
	case ClassLink:
		return "link"
	case ClassConservation:
		return "conservation"
	case ClassOrder:
		return "order"
	case ClassContention:
		return "contention"
	case ClassWaitFor:
		return "wait-for"
	case ClassPatch:
		return "patch"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Violation is one property the program fails to satisfy.
type Violation struct {
	Class Class
	Op    int // primary op id, or -1 when not tied to a single op
	Msg   string
}

func (v Violation) String() string {
	if v.Op >= 0 {
		return fmt.Sprintf("[%s] op %d: %s", v.Class, v.Op, v.Msg)
	}
	return fmt.Sprintf("[%s] %s", v.Class, v.Msg)
}

// Report is the outcome of verifying one program.
type Report struct {
	NumOps     int
	Checked    []Class // classes that ran to completion
	Violations []Violation
}

// OK reports whether no violations were found.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Class returns the violations of one class.
func (r *Report) Class(c Class) []Violation {
	var out []Violation
	for _, v := range r.Violations {
		if v.Class == c {
			out = append(out, v)
		}
	}
	return out
}

// Summary renders a one-line description of what was checked.
func (r *Report) Summary() string {
	names := make([]string, len(r.Checked))
	for i, c := range r.Checked {
		names[i] = c.String()
	}
	status := "OK"
	if !r.OK() {
		status = fmt.Sprintf("%d violations", len(r.Violations))
	}
	return fmt.Sprintf("%d ops, checks [%s]: %s", r.NumOps, strings.Join(names, " "), status)
}

// maxErrViolations bounds how many violations Err lists before eliding.
const maxErrViolations = 8

// Err returns nil for a clean report, or an error listing the violations
// (the first few, plus a count when there are many).
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "schedcheck: %d violations:", len(r.Violations))
	for i, v := range r.Violations {
		if i == maxErrViolations {
			fmt.Fprintf(&b, "\n  ... and %d more", len(r.Violations)-maxErrViolations)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return fmt.Errorf("%s", b.String())
}

// Check verifies the correctness classes over the program. If structural
// checks fail, the deeper classes are skipped — their analyses assume a
// well-formed acyclic program. The structural pass assumes nothing about its
// input (every id, dep, chunk, channel, relay, participant and node
// reference is bounds-checked before the deeper classes run), so a
// malformed program fails cleanly instead of panicking. Violations come out
// in a fixed order.
//
// Check reads the ops once, in a decode pass in id order, and then works on
// compact columns: a topological sort and one sweep in that order plan the
// classes (checks.go, bitset.go). A periodic program — every chunk from some
// w on an op-for-op translate of chunk c-Streams, no dependency on a later
// chunk — is proved by its window of chunks [0, w+Streams) once one pass
// certifies the translate; any other program (among them the separated tree
// and double tree, whose barriers every broadcast waits for), and any
// violation in the window, takes the full path, so the Report is the same on
// both (checks.go, "the periodic window"). Its scratch comes from a pool, so a warm Check
// allocates only its Report. It is safe for concurrent use.
func Check(p *Program) *Report {
	ck := getChecker(p)
	defer ck.release()
	if !ck.window() {
		ck.run(false)
	}
	return ck.r
}

// CheckDeep is Check plus the performance proofs of deep.go: channel
// contention (no link oversubscribed past the dependency critical path) and
// wait-for deadlock freedom under in-order channel service. They are
// separate because they constrain performance, not delivery: a schedule can
// violate them and still be correct, just slower than its structure claims.
func CheckDeep(p *Program) *Report { return check(p, true) }

func check(p *Program, deep bool) *Report {
	ck := getChecker(p)
	defer ck.release()
	ck.run(deep)
	return ck.r
}

// run runs Check's classes, and CheckDeep's too when deep is set.
func (ck *checker) run(deep bool) {
	p := ck.p
	ck.plan, ck.full = !deep, deep
	ck.structure(true)
	ck.r.Checked = append(ck.r.Checked, ClassStructure)
	if !ck.r.OK() {
		return
	}
	// Plan every reachability question, build only the closure they need,
	// then report. CheckDeep's contention pass asks about arbitrary pairs,
	// so there the full closure comes first and the walks answer as they go.
	if deep {
		ck.buildClosure()
	} else {
		ck.hubLabels()
	}
	ck.reportLinks()
	ck.r.Checked = append(ck.r.Checked, ClassLink)
	ck.sweep()
	if p.InOrder && ck.plan {
		ck.order(true)
	}
	if ck.plan {
		ck.buildClosure()
	}
	ck.report()
	if p.InOrder {
		ck.order(false)
		ck.r.Checked = append(ck.r.Checked, ClassOrder)
	}
	if deep {
		ck.contention()
		ck.r.Checked = append(ck.r.Checked, ClassContention)
		ck.waitFor()
		ck.r.Checked = append(ck.r.Checked, ClassWaitFor)
	}
}
