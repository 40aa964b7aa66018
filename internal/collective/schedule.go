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

// bufRef names a buffer touched by a transfer: either a node's gradient
// buffer (relay < 0) or the relay slot owned by a previous detour hop.
type bufRef struct {
	node  topology.NodeID
	relay int // transfer id owning the relay slot, or -1
}

func nodeBuf(n topology.NodeID) bufRef { return bufRef{node: n, relay: -1} }
func relayBuf(tid int) bufRef          { return bufRef{node: -1, relay: tid} }

// transfer is one scheduled operation: a chunk moving over a channel, or a
// zero-cost marker/barrier (channel < 0).
type transfer struct {
	id      int
	chunk   int // global chunk index
	bytes   int64
	channel topology.ChannelID // -1 for markers and barriers
	deps    []int

	// Data semantics (ignored for markers: src.relay<0 && src.node<0).
	src        bufRef
	dst        bufRef
	accumulate bool // dst += src (reduction) vs dst = src (broadcast/forward)

	// If finalNode >= 0, completion of this transfer makes chunk `chunk`
	// fully reduced and available at finalNode.
	finalNode topology.NodeID

	// noAlpha drops the channel's fixed latency from this transfer's cost:
	// chunks after the first within one contiguous block message pay only
	// the bandwidth term (halving-doubling sends whole blocks per step).
	noAlpha bool

	label string
}

func (t *transfer) isMarker() bool { return t.channel < 0 }

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

	transfers []*transfer

	// builtFor is the topology fingerprint the schedule was built (and, for
	// cached schedules, schedcheck-verified) against; 0 means unstamped.
	// Stamped schedules refuse to instantiate on a topology whose
	// fingerprint has drifted — see StaleScheduleError.
	builtFor uint64
}

func newSchedule(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition) *Schedule {
	return &Schedule{Graph: g, Nodes: nodes, Partition: part}
}

// addTransfer appends a channel transfer and returns its id.
func (s *Schedule) addTransfer(label string, ch topology.ChannelID, c int, bytes int64, src, dst bufRef, accumulate bool, deps ...int) int {
	id := len(s.transfers)
	s.transfers = append(s.transfers, &transfer{
		id: id, chunk: c, bytes: bytes, channel: ch,
		src: src, dst: dst, accumulate: accumulate,
		deps: append([]int(nil), deps...), finalNode: -1, label: label,
	})
	return id
}

// addMarker appends a zero-cost join; if final >= 0 its completion marks the
// chunk ready at that node.
func (s *Schedule) addMarker(label string, c int, final topology.NodeID, deps ...int) int {
	id := len(s.transfers)
	s.transfers = append(s.transfers, &transfer{
		id: id, chunk: c, channel: -1,
		src: bufRef{node: -1, relay: -1}, dst: bufRef{node: -1, relay: -1},
		deps: append([]int(nil), deps...), finalNode: final, label: label,
	})
	return id
}

// markFinal records that completion of transfer id makes its chunk ready at
// node n.
func (s *Schedule) markFinal(id int, n topology.NodeID) { s.transfers[id].finalNode = n }

// NumTransfers reports how many operations the schedule contains (markers
// included).
func (s *Schedule) NumTransfers() int { return len(s.transfers) }

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
	g.Reserve(len(s.transfers))
	// Size each channel's interval log up front: busy-slice growth inside
	// the run loop was a measurable allocation source across a sweep. The
	// edge count is counted in the same pass so the graph's flat edge list
	// and CSR payload are sized once too.
	chCount := make([]int, len(res))
	edges := 0
	for _, t := range s.transfers {
		if !t.isMarker() {
			chCount[t.channel]++
		}
		edges += len(t.deps)
		if startDep >= 0 && len(t.deps) == 0 {
			edges++
		}
	}
	g.ReserveEdges(edges)
	for i, n := range chCount {
		if n > 0 {
			res[i].Prealloc(n)
		}
	}
	ids := make([]int, len(s.transfers))
	var deps []int // scratch, reused: Graph.Add copies deps into its edge list
	for i, t := range s.transfers {
		var r *des.Resource
		var d des.Time
		if !t.isMarker() {
			ch := s.Graph.Channel(t.channel)
			if ch.Down() {
				return nil, &DeadChannelError{Transfer: i, Label: t.label, Channel: t.channel,
					From: ch.From, To: ch.To}
			}
			r = res[t.channel]
			d = ch.TransferTime(t.bytes)
			if t.noAlpha {
				d -= ch.Latency
			}
		}
		deps = deps[:0]
		for _, dep := range t.deps {
			deps = append(deps, ids[dep])
		}
		if len(t.deps) == 0 && startDep >= 0 {
			deps = append(deps, startDep)
		}
		ids[i] = g.Add(t.label, r, d, deps...)
	}

	nodeIdx := make(map[topology.NodeID]int, len(s.Nodes))
	for i, n := range s.Nodes {
		nodeIdx[n] = i
	}
	k := s.Partition.NumChunks()
	readyTask := make([][]int, len(s.Nodes))
	for i := range readyTask {
		readyTask[i] = make([]int, k)
		for c := range readyTask[i] {
			readyTask[i][c] = -1
		}
	}
	for i, t := range s.transfers {
		if t.finalNode < 0 {
			continue
		}
		ni, ok := nodeIdx[t.finalNode]
		if !ok {
			return nil, fmt.Errorf("collective: final node %d not a participant", t.finalNode)
		}
		readyTask[ni][t.chunk] = ids[i]
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
	nodeIdx := make(map[topology.NodeID]int, len(s.Nodes))
	for i, nd := range s.Nodes {
		nodeIdx[nd] = i
	}
	// Node buffers start as copies of the inputs.
	buf := make([][]float64, len(inputs))
	for i, in := range inputs {
		buf[i] = append([]float64(nil), in...)
	}
	relay := make(map[int][]float64)

	view := func(r bufRef, c int, t *transfer) ([]float64, error) {
		lo, sz := part.Offsets[c], part.Sizes[c]
		if r.relay >= 0 {
			v, ok := relay[r.relay]
			if !ok {
				return nil, fmt.Errorf("collective: transfer %d (%s) reads empty relay slot %d", t.id, t.label, r.relay)
			}
			return v, nil
		}
		ni, ok := nodeIdx[r.node]
		if !ok {
			return nil, fmt.Errorf("collective: transfer %d (%s) references non-participant node %d", t.id, t.label, r.node)
		}
		return buf[ni][lo : lo+sz], nil
	}

	order, err := s.topoOrder()
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		t := s.transfers[id]
		if t.isMarker() {
			continue
		}
		src, err := view(t.src, t.chunk, t)
		if err != nil {
			return nil, err
		}
		if t.dst.relay >= 0 {
			relay[t.dst.relay] = append([]float64(nil), src...)
			continue
		}
		dst, err := view(t.dst, t.chunk, t)
		if err != nil {
			return nil, err
		}
		if t.accumulate {
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
	for _, t := range s.transfers {
		if t.isMarker() || t.dst.relay < 0 {
			continue
		}
		out[s.Graph.Channel(t.channel).To] += t.bytes
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

// topoOrder returns transfer ids in dependency order (Kahn's algorithm).
func (s *Schedule) topoOrder() ([]int, error) {
	indeg := make([]int, len(s.transfers))
	dependents := make([][]int, len(s.transfers))
	for _, t := range s.transfers {
		indeg[t.id] = len(t.deps)
		for _, d := range t.deps {
			dependents[d] = append(dependents[d], t.id)
		}
	}
	var queue, order []int
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, dep := range dependents[id] {
			indeg[dep]--
			if indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if len(order) != len(s.transfers) {
		return nil, fmt.Errorf("collective: schedule has a dependency cycle (%d of %d ordered)",
			len(order), len(s.transfers))
	}
	return order, nil
}

// Program lowers the schedule into the static verifier's neutral IR. The
// mapping is 1:1 — transfer ids become op ids — so verifier diagnostics
// point directly at schedule transfers.
func (s *Schedule) Program() *schedcheck.Program {
	ops := make([]schedcheck.Op, len(s.transfers))
	buf := func(r bufRef) schedcheck.Buf {
		return schedcheck.Buf{Node: r.node, Relay: r.relay}
	}
	for i, t := range s.transfers {
		ch := t.channel
		if t.isMarker() {
			ch = -1
		}
		ops[i] = schedcheck.Op{
			ID:         t.id,
			Label:      t.label,
			Chunk:      t.chunk,
			Bytes:      t.bytes,
			Channel:    ch,
			Deps:       t.deps,
			Src:        buf(t.src),
			Dst:        buf(t.dst),
			Accumulate: t.accumulate,
			NoAlpha:    t.noAlpha,
			Final:      t.finalNode,
		}
	}
	return &schedcheck.Program{
		Graph:     s.Graph,
		Nodes:     s.Nodes,
		NumChunks: s.Partition.NumChunks(),
		InOrder:   s.InOrder,
		Streams:   s.Streams,
		AllReduce: s.Contract == ContractAllReduce,
		Ops:       ops,
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
	for _, t := range s.transfers {
		if t.chunk < 0 || t.chunk >= k {
			return fmt.Errorf("collective: transfer %d chunk %d out of range", t.id, t.chunk)
		}
		if !t.isMarker() {
			if int(t.channel) >= s.Graph.NumChannels() {
				return fmt.Errorf("collective: transfer %d references channel %d", t.id, t.channel)
			}
			if t.bytes <= 0 {
				return fmt.Errorf("collective: transfer %d moves %d bytes", t.id, t.bytes)
			}
		}
		for _, d := range t.deps {
			if d < 0 || d >= len(s.transfers) {
				return fmt.Errorf("collective: transfer %d has invalid dep %d", t.id, d)
			}
		}
	}
	if _, err := s.topoOrder(); err != nil {
		return err
	}
	return nil
}
