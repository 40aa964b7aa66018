package collective

import (
	"context"
	"errors"
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/des"
	"ccube/internal/metrics"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// Contract declares a schedule's data semantics, used by the static
// verifier to decide how strict the conservation check should be.
type Contract int

const (
	// ContractGeneric covers standalone primitives (broadcast, reduce,
	// reduce-scatter, ...): the verifier rejects double reductions and
	// missing finals but does not demand the full AllReduce sum.
	ContractGeneric Contract = iota
	// ContractAllReduce requires every participant to end holding exactly
	// one contribution from every participant in every chunk.
	ContractAllReduce
)

// Schedule is a complete dependency DAG for one collective operation over a
// physical topology. Build it with an algorithm constructor, then ExecuteCtx it
// for timing or ExecuteData for functional verification.
type Schedule struct {
	Graph     *topology.Graph
	Nodes     []topology.NodeID // participating GPUs
	Partition chunk.Partition
	InOrder   bool // chunks complete in index order at every node (tree property)

	// Streams is the number of independent in-order chunk streams backing
	// the InOrder claim (the tree count of a multi-tree schedule): chunk c
	// belongs to stream c % Streams. Ignored unless InOrder is set; values
	// < 1 mean a single stream.
	Streams int

	// Contract records what the schedule computes, for verification.
	Contract Contract

	// ops is the schedule in its one representation, the verifier's IR:
	// transfer i is ops[i], with ID i, and ids are a topological order. Every
	// op's Deps is a three-index subslice of deps, the one dependency arena,
	// so appending to one op's deps reallocates instead of overwriting its
	// neighbour's. Builders reserve both slices at their exact final size.
	ops  []schedcheck.Op
	deps []int

	// builtFor is the topology fingerprint the schedule was built (and, for
	// cached schedules, schedcheck-verified) against; 0 means unstamped.
	// Stamped schedules refuse to instantiate on a topology whose
	// fingerprint has drifted — see StaleScheduleError.
	builtFor uint64
}

func newSchedule(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition) *Schedule {
	return &Schedule{Graph: g, Nodes: nodes, Partition: part}
}

// reserve sizes the op slice and the deps arena for exactly ops operations
// holding deps dependencies in total, so building grows neither.
func (s *Schedule) reserve(ops, deps int) {
	s.ops = make([]schedcheck.Op, 0, ops)
	s.deps = make([]int, 0, deps)
}

// add appends op with id len(ops) and deps copied into the arena, and
// returns the id.
func (s *Schedule) add(op schedcheck.Op, deps ...int) int {
	op.ID = len(s.ops)
	start := len(s.deps)
	s.deps = append(s.deps, deps...)
	op.Deps = s.deps[start:len(s.deps):len(s.deps)]
	s.ops = append(s.ops, op)
	return op.ID
}

// addDep appends d to the dependencies of the op added last, whose deps end
// the arena.
func (s *Schedule) addDep(d int) {
	op := &s.ops[len(s.ops)-1]
	s.deps = append(s.deps, d)
	n := len(s.deps)
	op.Deps = s.deps[n-len(op.Deps)-1 : n : n]
}

// addTransfer appends chunk c moving over channel ch from node from's buffer
// into node to's, accumulating or overwriting, and returns its id.
func (s *Schedule) addTransfer(ch topology.ChannelID, c int, from, to topology.NodeID, accumulate bool, deps ...int) int {
	return s.add(schedcheck.Op{Chunk: c, Bytes: s.Partition.Sizes[c], Channel: ch,
		Src: schedcheck.NodeBuf(from), Dst: schedcheck.NodeBuf(to), Accumulate: accumulate, Final: -1}, deps...)
}

// addMarker appends a zero-cost join; if final >= 0 its completion marks the
// chunk ready at that node.
func (s *Schedule) addMarker(c int, final topology.NodeID, deps ...int) int {
	return s.add(schedcheck.Op{Chunk: c, Channel: -1, Src: schedcheck.NoBuf(), Dst: schedcheck.NoBuf(), Final: final}, deps...)
}

// NumTransfers reports how many operations the schedule contains (markers
// included).
func (s *Schedule) NumTransfers() int { return len(s.ops) }

// Label renders transfer id for diagnostics and traces, e.g.
// "reduce c5 3->1" (see schedcheck.Program.Label).
func (s *Schedule) Label(id int) string { return s.Program().Label(id) }

// nodeIndex maps a NodeID to its index in Schedule.Nodes, -1 for nodes that
// do not participate.
type nodeIndex []int32

func (s *Schedule) nodeIndex() nodeIndex {
	idx := make(nodeIndex, s.Graph.NumNodes())
	for i := range idx {
		idx[i] = -1
	}
	for i, n := range s.Nodes {
		if n >= 0 && int(n) < len(idx) {
			idx[n] = int32(i)
		}
	}
	return idx
}

// of returns n's participant index, or -1.
func (x nodeIndex) of(n topology.NodeID) int {
	if n < 0 || int(n) >= len(x) {
		return -1
	}
	return int(x[n])
}

// StaleScheduleError reports an attempt to instantiate a stamped schedule on
// a topology whose fingerprint no longer matches the one it was built and
// verified against — e.g. a channel was killed or degraded after the
// schedule came out of the cache. The fix is to rebuild (a cache lookup
// misses on the new fingerprint) or to run RepairSchedule, which verifies
// its patch against the current topology and restamps.
type StaleScheduleError struct {
	Built   uint64 // fingerprint at build/verification time
	Current uint64 // fingerprint now
}

func (e *StaleScheduleError) Error() string {
	return fmt.Sprintf("collective: stale schedule: topology fingerprint changed %016x -> %016x since the schedule was built; rebuild or repair it",
		e.Built, e.Current)
}

// stamp binds the schedule to the current topology fingerprint; Instantiate
// then fails loudly if the topology mutates underneath it.
func (s *Schedule) stamp() { s.builtFor = s.Graph.Fingerprint() }

// BuiltFingerprint returns the topology fingerprint the schedule is stamped
// with (0 for unstamped schedules, which skip the staleness check).
func (s *Schedule) BuiltFingerprint() uint64 { return s.builtFor }

// Result summarizes one timed execution of a schedule.
type Result struct {
	Total des.Time // completion of the whole AllReduce

	// ChunkReady[i][c] is when chunk c is fully reduced and available at
	// Nodes[i]; indexes follow Schedule.Nodes order.
	ChunkReady [][]des.Time

	// ChunkDone[c] is when chunk c is available at every node.
	ChunkDone []des.Time

	// Turnaround is the gradient turnaround time (paper Fig. 7): when the
	// first chunk is available at every node.
	Turnaround des.Time

	// Resources holds one entry per topology channel, with recorded
	// occupancy, for utilization analysis and serialization checks.
	Resources []*des.Resource

	Partition chunk.Partition
	InOrder   bool
}

// Bandwidth returns the achieved AllReduce bandwidth in bytes/second
// (message size divided by total time), the paper's Fig. 12 metric.
func (r *Result) Bandwidth() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Partition.TotalBytes) / r.Total.Seconds()
}

// Instantiation is the result of embedding a schedule's transfers into a
// des.Graph: the task ids that mark chunk availability, for wiring
// schedule completion into a larger pipeline (the training simulator chains
// forward-compute tasks onto these).
type Instantiation struct {
	// ReadyTask[i][c] is the graph task id whose End makes chunk c available
	// at Schedule.Nodes[i].
	ReadyTask [][]int
	// TaskIDs maps transfer index to graph task id.
	TaskIDs []int
}

// Instantiate adds the schedule's transfers to an existing des.Graph using
// the given per-channel resources (index = ChannelID). Every transfer with
// no intra-schedule dependencies additionally depends on startDep when
// startDep >= 0 (e.g. "backward pass finished"; the one-shot collective is
// invoked once, after all gradients exist).
func (s *Schedule) Instantiate(g *des.Graph, res []*des.Resource, startDep int) (*Instantiation, error) {
	if len(res) != s.Graph.NumChannels() {
		return nil, fmt.Errorf("collective: %d resources for %d channels", len(res), s.Graph.NumChannels())
	}
	if s.builtFor != 0 {
		if fp := s.Graph.Fingerprint(); fp != s.builtFor {
			return nil, &StaleScheduleError{Built: s.builtFor, Current: fp}
		}
	}
	g.Reserve(len(s.ops))
	// Size each channel's interval log up front: busy-slice growth inside
	// the run loop was a measurable allocation source across a sweep. The
	// graph's flat edge list and CSR payload are sized from the deps arena,
	// plus one startDep edge per root op.
	chCount := make([]int, len(res))
	edges := len(s.deps)
	for i := range s.ops {
		op := &s.ops[i]
		if !op.Marker() {
			chCount[op.Channel]++
		}
		if startDep >= 0 && len(op.Deps) == 0 {
			edges++
		}
	}
	g.ReserveEdges(edges)
	for i, n := range chCount {
		if n > 0 {
			res[i].Prealloc(n)
		}
	}
	ids := make([]int, len(s.ops))
	var deps []int // scratch, reused: Graph.Add copies deps into its edge list
	for i := range s.ops {
		op := &s.ops[i]
		var r *des.Resource
		var d des.Time
		if !op.Marker() {
			ch := s.Graph.Channel(op.Channel)
			if ch.Down() {
				return nil, &DeadChannelError{Transfer: i, Label: s.Label(i), Channel: op.Channel,
					From: ch.From, To: ch.To}
			}
			r = res[op.Channel]
			d = ch.TransferTime(op.Bytes)
			if op.NoAlpha {
				d -= ch.Latency
			}
		}
		deps = deps[:0]
		for _, dep := range op.Deps {
			deps = append(deps, ids[dep])
		}
		if len(op.Deps) == 0 && startDep >= 0 {
			deps = append(deps, startDep)
		}
		ids[i] = g.Add(op.Kind(), r, d, deps...)
	}

	idx := s.nodeIndex()
	k := s.Partition.NumChunks()
	readyTask := make([][]int, len(s.Nodes))
	for i := range readyTask {
		readyTask[i] = make([]int, k)
		for c := range readyTask[i] {
			readyTask[i][c] = -1
		}
	}
	for i := range s.ops {
		op := &s.ops[i]
		if op.Final < 0 {
			continue
		}
		ni := idx.of(op.Final)
		if ni < 0 {
			return nil, fmt.Errorf("collective: final node %d not a participant", op.Final)
		}
		readyTask[ni][op.Chunk] = ids[i]
	}
	for i := range readyTask {
		for c, id := range readyTask[i] {
			if id < 0 {
				return nil, fmt.Errorf("collective: chunk %d never becomes ready at node %v", c, s.Nodes[i])
			}
		}
	}
	return &Instantiation{ReadyTask: readyTask, TaskIDs: ids}, nil
}

// ExecuteCtx runs the schedule on the discrete-event engine over fresh
// channel resources and returns timing. A request deadline (or explicit
// cancel) aborts the run at its next task-pop checkpoint with a wrapped
// *des.CanceledError.
func (s *Schedule) ExecuteCtx(ctx context.Context) (*Result, error) {
	r, _, err := s.ExecuteOnCtx(ctx, s.Graph.Resources())
	return r, err
}

// ExecuteOnCtx is ExecuteCtx over caller-provided channel resources (index =
// ChannelID), additionally returning the executed task graph for timeline
// export (see internal/trace). It is the entry point for fault injection:
// the caller may arm resources with SetSlowdownAt/FailAt breakpoints before
// the run, and a failed resource surfaces as a wrapped *des.FaultError,
// never a panic. Cancellation surfaces as a wrapped *des.CanceledError
// (which unwraps further to the context error).
func (s *Schedule) ExecuteOnCtx(ctx context.Context, res []*des.Resource) (*Result, *des.Graph, error) {
	r, g, _, err := s.execute(ctx, res)
	return r, g, err
}

// execute is the run loop behind ExecuteOnCtx and ExecuteCheckpointCtx: it
// instantiates the schedule into a fresh task graph over res and runs it.
// A resource fault additionally yields a checkpoint of the executed prefix.
func (s *Schedule) execute(ctx context.Context, res []*des.Resource) (*Result, *des.Graph, *Checkpoint, error) {
	g := des.NewGraph()
	inst, err := s.Instantiate(g, res, -1)
	if err != nil {
		return nil, nil, nil, err
	}
	total, err := g.RunCtx(ctx)
	if err != nil {
		var ce *des.CanceledError
		if errors.As(err, &ce) {
			return nil, nil, nil, fmt.Errorf("collective: execution canceled: %w", err)
		}
		var cp *Checkpoint
		var fe *des.FaultError
		if errors.As(err, &fe) {
			cp = s.checkpointFrom(g, inst.TaskIDs, res, total)
		}
		return nil, nil, cp, fmt.Errorf("collective: execution aborted: %w", err)
	}
	r, err := s.buildResult(g, inst, res, total)
	if err != nil {
		return nil, nil, nil, err
	}
	return r, g, nil, nil
}

// buildResult assembles the Result of a completed run: per-(node, chunk)
// readiness from the instantiation's final tasks, serialization validation,
// and metrics.
func (s *Schedule) buildResult(g *des.Graph, inst *Instantiation, res []*des.Resource, total des.Time) (*Result, error) {
	k := s.Partition.NumChunks()
	ready := make([][]des.Time, len(s.Nodes))
	for i := range ready {
		ready[i] = make([]des.Time, k)
		for c, id := range inst.ReadyTask[i] {
			ready[i][c] = g.End(id)
		}
	}
	done := make([]des.Time, k)
	for c := 0; c < k; c++ {
		for i := range ready {
			if ready[i][c] > done[c] {
				done[c] = ready[i][c]
			}
		}
	}
	for _, r := range res {
		if err := r.ValidateSerialized(); err != nil {
			return nil, err
		}
	}
	if metrics.Default.Enabled() {
		s.publishExecutionMetrics(res, g, inst.TaskIDs, total)
	}
	return &Result{
		Total:      total,
		ChunkReady: ready,
		ChunkDone:  done,
		Turnaround: done[0],
		Resources:  res,
		Partition:  s.Partition,
		InOrder:    s.InOrder,
	}, nil
}

// ExecuteData runs the schedule's data semantics over per-node input vectors
// and returns the per-node results. Every algorithm must leave every node
// with the element-wise sum of all inputs — the fundamental AllReduce
// contract verified by the test suite.
//
// Inputs are indexed like Schedule.Nodes; all vectors must share one length.
func (s *Schedule) ExecuteData(inputs [][]float64) ([][]float64, error) {
	if len(inputs) != len(s.Nodes) {
		return nil, fmt.Errorf("collective: %d inputs for %d nodes", len(inputs), len(s.Nodes))
	}
	n := len(inputs[0])
	for i, in := range inputs {
		if len(in) != n {
			return nil, fmt.Errorf("collective: input %d has %d elements, want %d", i, len(in), n)
		}
	}
	if n == 0 {
		return nil, fmt.Errorf("collective: empty input vectors")
	}
	// Partition elements into the same number of chunks as the schedule.
	part := chunk.SplitAtMost(int64(n), s.Partition.NumChunks())
	if part.NumChunks() != s.Partition.NumChunks() {
		return nil, fmt.Errorf("collective: %d elements cannot form %d chunks", n, s.Partition.NumChunks())
	}
	idx := s.nodeIndex()
	// Node buffers start as copies of the inputs.
	buf := make([][]float64, len(inputs))
	for i, in := range inputs {
		buf[i] = append([]float64(nil), in...)
	}
	relay := make([][]float64, len(s.ops)) // relay[id]: op id's relay slot, nil until written

	view := func(b schedcheck.Buf, c, id int) ([]float64, error) {
		if b.Relay >= 0 {
			if b.Relay >= len(relay) || relay[b.Relay] == nil {
				return nil, fmt.Errorf("collective: transfer %d (%s) reads empty relay slot %d", id, s.Label(id), b.Relay)
			}
			return relay[b.Relay], nil
		}
		ni := idx.of(b.Node)
		if ni < 0 {
			return nil, fmt.Errorf("collective: transfer %d (%s) references non-participant node %d", id, s.Label(id), b.Node)
		}
		lo := part.Offsets[c]
		return buf[ni][lo : lo+part.Sizes[c]], nil
	}

	order, err := s.topoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		op := &s.ops[id]
		if op.Marker() {
			continue
		}
		src, err := view(op.Src, op.Chunk, id)
		if err != nil {
			return nil, err
		}
		if op.Dst.Relay >= 0 {
			relay[id] = append([]float64(nil), src...)
			continue
		}
		dst, err := view(op.Dst, op.Chunk, id)
		if err != nil {
			return nil, err
		}
		if op.Accumulate {
			for i := range dst {
				dst[i] += src[i]
			}
		} else {
			copy(dst, src)
		}
	}
	return buf, nil
}

// ForwardedBytes returns, per intermediate node, the bytes it statically
// forwards for detour routes (paper §IV-A). A transfer writing into a relay
// slot terminates at the intermediate, which must copy it onward — that copy
// is the SM work Fig. 15 measures.
func (s *Schedule) ForwardedBytes() map[topology.NodeID]int64 {
	out := make(map[topology.NodeID]int64)
	for i := range s.ops {
		op := &s.ops[i]
		if op.Marker() || op.Dst.Relay < 0 {
			continue
		}
		out[s.Graph.Channel(op.Channel).To] += op.Bytes
	}
	return out
}

// DetourNodes returns the nodes acting as detour intermediates, in id order.
func (s *Schedule) DetourNodes() []topology.NodeID {
	fw := s.ForwardedBytes()
	var nodes []topology.NodeID
	for _, n := range s.Nodes {
		if fw[n] > 0 {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// topoOrder returns transfer ids in dependency order: Kahn's algorithm with
// a FIFO queue, over the dependents in CSR form (row i, the ops listing i,
// is targets[off[i]:off[i+1]] in id order), read off the deps arena in one
// counting pass and one filling pass.
func (s *Schedule) topoOrder() ([]int, error) {
	n := len(s.ops)
	off := make([]int32, n+1)
	indeg := make([]int32, n)
	for i := range s.ops {
		indeg[i] = int32(len(s.ops[i].Deps))
		for _, d := range s.ops[i].Deps {
			off[d+1]++
		}
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	targets := make([]int32, off[n])
	next := append([]int32(nil), off[:n]...)
	for i := range s.ops {
		for _, d := range s.ops[i].Deps {
			targets[next[d]] = int32(i)
			next[d]++
		}
	}
	// order doubles as the queue: ops are appended once runnable.
	order := make([]int, 0, n)
	for id, d := range indeg {
		if d == 0 {
			order = append(order, id)
		}
	}
	for head := 0; head < len(order); head++ {
		id := order[head]
		for _, t := range targets[off[id]:off[id+1]] {
			indeg[t]--
			if indeg[t] == 0 {
				order = append(order, int(t))
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("collective: schedule has a dependency cycle (%d of %d ordered)", len(order), n)
	}
	return order, nil
}

// Program returns the schedule as the static verifier's program. It is a
// view, not a copy: its ops are the schedule's own, so verifier
// diagnostics point directly at schedule transfers. A schedule from the
// cache is shared by every caller, so treat the program as read-only and
// edit a Clone.
func (s *Schedule) Program() *schedcheck.Program {
	return &schedcheck.Program{
		Graph:     s.Graph,
		Nodes:     s.Nodes,
		NumChunks: s.Partition.NumChunks(),
		InOrder:   s.InOrder,
		Streams:   s.Streams,
		AllReduce: s.Contract == ContractAllReduce,
		Ops:       s.ops,
	}
}

// VerifyDeep is Validate plus the performance proofs: no physical channel is
// shared by unordered transfers of concurrent chunk streams (contention —
// the paper's disjoint-channel requirement for overlapped trees), and the
// combined dependency + channel-service-order wait-for graph is acyclic
// (wait-for). It is a separate knob because these constrain performance,
// not delivery: AllowSharedChannels schedules intentionally violate
// contention — the DES serializes the sharing flows — and still deliver
// every chunk.
func (s *Schedule) VerifyDeep() error {
	return schedcheck.CheckDeep(s.Program()).Err()
}

// MakespanBound returns a provable lower bound on the schedule's execution
// time under the alpha-beta cost model: the larger of the dependency
// critical path and the busiest channel's serialized load. Execution can
// never beat it; the grid test asserts execution stays within a small slack
// factor of it, pinning the analyzer's cost model to the DES's.
func (s *Schedule) MakespanBound() (des.Time, error) {
	return schedcheck.MakespanBound(s.Program())
}

// Validate checks the schedule's correctness without executing it: the
// static verifier in internal/schedcheck checks structure (index ranges,
// acyclicity) first, then proves hazard freedom, link validity,
// conservation, and the in-order claim.
func (s *Schedule) Validate() error {
	return schedcheck.Check(s.Program()).Err()
}

// validateStructure runs a cheap structural pass alone: index ranges,
// positive transfer sizes, dependency validity, acyclicity. Incremental
// rebuilds use it (they patch a verified sibling and re-check only
// structure — the byte-independent proofs carry over).
func (s *Schedule) validateStructure() error {
	k := s.Partition.NumChunks()
	for i := range s.ops {
		op := &s.ops[i]
		if op.Chunk < 0 || op.Chunk >= k {
			return fmt.Errorf("collective: transfer %d chunk %d out of range", i, op.Chunk)
		}
		if !op.Marker() {
			if int(op.Channel) >= s.Graph.NumChannels() {
				return fmt.Errorf("collective: transfer %d references channel %d", i, op.Channel)
			}
			if op.Bytes <= 0 {
				return fmt.Errorf("collective: transfer %d moves %d bytes", i, op.Bytes)
			}
		}
		for _, d := range op.Deps {
			if d < 0 || d >= len(s.ops) {
				return fmt.Errorf("collective: transfer %d has invalid dep %d", i, d)
			}
		}
	}
	_, err := s.topoOrder()
	return err
}
