package collective

import (
	"context"
	"errors"
	"fmt"
	"slices"

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
	// transfer i is ops[i], a 32-byte record with no pointers, and ids are
	// a topological order. A transfer moves its chunk's bytes,
	// Partition.Sizes[Chunk], so the op graph is independent of the message
	// size. Dependencies are one CSR beside it: transfer i depends on
	// deps[depOff[i]:depOff[i+1]], so depOff holds a leading 0 and one entry
	// per op. Builders append to all three and reserve them at their exact
	// final size; a built schedule never edits them, so clones share the CSR
	// and the cache shares all three between message sizes.
	ops    []schedcheck.Op
	depOff []int32
	deps   []int32

	// builtFor is the topology fingerprint the schedule was proved against
	// (schedcheck.Check, or CheckPatch for a repair); 0 means unproved.
	// Executors refuse an unproved schedule (ErrUnverified) and one whose
	// topology fingerprint has drifted (StaleScheduleError).
	builtFor uint64

	// g is the op graph's one record, shared by every header over the
	// graph (see incremental.go); nil for a schedule never adopted.
	g *opGraph
}

func newSchedule(g *topology.Graph, nodes []topology.NodeID, part chunk.Partition) *Schedule {
	return &Schedule{Graph: g, Nodes: nodes, Partition: part}
}

// reserve sizes the op slice and the dependency CSR for exactly ops
// operations holding deps dependencies in total, so building grows none of
// them.
func (s *Schedule) reserve(ops, deps int) {
	s.ops = make([]schedcheck.Op, 0, ops)
	s.reserveDeps(ops, deps)
}

// reserveDeps sizes the dependency CSR alone. Its two slices share one
// block, each capped at its share.
func (s *Schedule) reserveDeps(ops, deps int) {
	csr := make([]int32, ops+1+deps)
	s.depOff = csr[: 1 : ops+1]
	s.deps = csr[ops+1 : ops+1 : ops+1+deps]
}

// add appends op with id len(ops) and its deps to the CSR, and returns the
// id.
func (s *Schedule) add(op schedcheck.Op, deps ...int) int {
	for _, d := range deps {
		s.deps = append(s.deps, int32(d))
	}
	s.depOff = append(s.depOff, int32(len(s.deps)))
	s.ops = append(s.ops, op)
	return len(s.ops) - 1
}

// addDep appends d to the dependencies of the op added last, whose row ends
// the CSR.
func (s *Schedule) addDep(d int) {
	s.deps = append(s.deps, int32(d))
	s.depOff[len(s.depOff)-1]++
}

// depsOf returns transfer i's dependencies, a view of the CSR.
func (s *Schedule) depsOf(i int) []int32 {
	lo, hi := s.depOff[i], s.depOff[i+1]
	return s.deps[lo:hi:hi]
}

// addTransfer appends chunk c moving over channel ch from node from's buffer
// into node to's, accumulating or overwriting, and returns its id.
func (s *Schedule) addTransfer(ch topology.ChannelID, c int, from, to topology.NodeID, accumulate bool, deps ...int) int {
	return s.add(schedcheck.Op{Chunk: int32(c), Channel: int32(ch),
		Src: schedcheck.NodeBuf(from), Dst: schedcheck.NodeBuf(to), Accumulate: accumulate, Final: -1}, deps...)
}

// addMarker appends a zero-cost join; if final >= 0 its completion marks the
// chunk ready at that node.
func (s *Schedule) addMarker(c int, final topology.NodeID, deps ...int) int {
	return s.add(schedcheck.Op{Chunk: int32(c), Channel: -1, Src: schedcheck.NoBuf(), Dst: schedcheck.NoBuf(),
		Final: int32(final)}, deps...)
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

// indexNodes returns the schedule's nodeIndex, in idx's array when it has
// the capacity.
func (s *Schedule) indexNodes(idx nodeIndex) nodeIndex {
	idx = slices.Grow(idx[:0], s.Graph.NumNodes())[:s.Graph.NumNodes()]
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

// ErrUnverified is what every executor returns for a schedule that never
// passed the static verifier, such as a hand-made &Schedule{}: only adopt
// (which every constructor finishes through) and RepairSchedule stamp a
// schedule.
var ErrUnverified = errors.New("collective: schedule was never verified; build it with a constructor")

// stamp binds the schedule to the current topology fingerprint; checkFresh
// then fails loudly if the topology mutates underneath it.
func (s *Schedule) stamp() { s.builtFor = s.Graph.Fingerprint() }

// verified finishes a constructor: it adopts the schedule a raw builder
// returned, or passes the builder's error on.
func verified(s *Schedule, err error) (*Schedule, error) {
	if err != nil {
		return nil, err
	}
	return s.adopt()
}

// adopt proves a newly constructed schedule with the static verifier and
// stamps it against the current topology: the one step that makes a
// schedule executable. It gives the schedule its op graph's record.
func (s *Schedule) adopt() (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("collective: schedule failed verification: %w", err)
	}
	s.stamp()
	s.g = &opGraph{s: s}
	return s, nil
}

// BuiltFingerprint returns the topology fingerprint the schedule is stamped
// with (0 for a schedule no constructor proved, which no executor runs).
func (s *Schedule) BuiltFingerprint() uint64 { return s.builtFor }

// opBytes returns what op moves: its chunk's size, or 0 for a marker.
func (s *Schedule) opBytes(op *schedcheck.Op) int64 {
	if op.Marker() {
		return 0
	}
	return s.Partition.Sizes[op.Chunk]
}

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

	// ChannelBusy[c] is the time channel c was occupied during the run
	// (index = topology.ChannelID), for utilization analysis.
	ChannelBusy []des.Time

	Partition chunk.Partition
	InOrder   bool
}

// Utilization returns the fraction of the run channel ch was occupied (0
// for an empty run).
func (r *Result) Utilization(ch topology.ChannelID) float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.ChannelBusy[ch]) / float64(r.Total)
}

// Bandwidth returns the achieved AllReduce bandwidth in bytes/second
// (message size divided by total time), the paper's Fig. 12 metric.
func (r *Result) Bandwidth() float64 {
	if r.Total <= 0 {
		return 0
	}
	return float64(r.Partition.TotalBytes) / r.Total.Seconds()
}

// Instantiate appends the schedule's transfers to an existing des.Graph as
// one block, over the given per-channel resources (index = ChannelID):
// transfer i becomes task base+i, lowered exactly as the executors lower
// it, with its dependencies shifted by base. Every transfer with no
// intra-schedule dependencies additionally depends on startDep when
// startDep >= 0 (e.g. "backward pass finished"; the one-shot collective is
// invoked once, after all gradients exist). On an error the graph holds a
// partial block and must be discarded.
//
// The returned Block names the tasks that mark chunk availability, for
// wiring schedule completion into a larger pipeline (the training
// simulator chains forward-compute tasks onto them), and reads the block's
// Result once the graph has run.
func (s *Schedule) Instantiate(g *des.Graph, res []*des.Resource, startDep int) (*Block, error) {
	if err := s.checkResources(res); err != nil {
		return nil, err
	}
	r := getRun()
	defer putRun(r)
	r.prepare(s)
	ids, stride, err := r.readyIDs(s, s.builtSkeleton())
	if err != nil {
		return nil, err
	}
	base := g.AddBlock(len(s.ops), s.depOff, s.deps, startDep)
	for i := range s.ops {
		d, ch, err := r.transfer(s, i)
		if err != nil {
			return nil, err
		}
		var cr *des.Resource
		if ch >= 0 {
			cr = res[ch]
		}
		g.Set(base+i, cr, d)
	}
	ready := grid[int](len(s.Nodes), s.Partition.NumChunks())
	for i, row := range ready {
		for c := range row {
			row[c] = base + int(ids[i*stride+c])
		}
	}
	return &Block{Ready: ready, s: s, base: base, start: startDep}, nil
}

// Block is a schedule instantiated into a des.Graph: transfer i is task
// base+i, and the block starts when its start task ends (at time zero when
// it has none). The block stores no task names; Label derives them for the
// graph's namer.
type Block struct {
	// Ready[i][c] is the task whose End makes chunk c available at
	// Schedule.Nodes[i].
	Ready [][]int

	s     *Schedule
	base  int
	start int
}

// Label names block task id (base <= id < base+NumTransfers) by its
// transfer's kind — "reduce", "copy", "relay" or "marker" — as
// ExecuteOnCtx's graph names it.
func (b *Block) Label(id int) string { return b.s.ops[id-b.base].Kind() }

// Result reads the block's timing off g after g ran to completion, with
// every time relative to the block's start: Total is the latest block
// task's End, ChunkReady the End of each Ready task, and ChannelBusy sums
// each channel's block transfers. When the block's channel resources serve
// only the block and carry no timed slowdown or failure, this is exactly
// the Result ExecuteCtx reports: the run loop grants in (ready time, id)
// order, block ids keep the schedule's order, and every root transfer
// becomes ready at the start, so the block is the standalone run shifted
// by the start time. With collection enabled Result also records the run
// in the execution metrics as ExecuteCtx does, so call it once per run.
func (b *Block) Result(g *des.Graph) *Result {
	s := b.s
	start, end := g.Times(b.base, b.base+len(s.ops))
	var t0 des.Time
	if b.start >= 0 {
		t0 = g.End(b.start)
	}
	busy := make([]des.Time, s.Graph.NumChannels())
	var total des.Time
	for i := range s.ops {
		total = max(total, end[i]-t0)
		if !s.ops[i].Marker() {
			busy[s.ops[i].Channel] += end[i] - start[i]
		}
	}
	r := getRun()
	defer putRun(r)
	k := s.Partition.NumChunks()
	r.ready = slices.Grow(r.ready[:0], len(b.Ready)*k)[:len(b.Ready)*k]
	for i, row := range b.Ready {
		for c, id := range row {
			r.ready[i*k+c] = int32(id - b.base)
		}
	}
	if metrics.Default.Enabled() {
		s.publishExecutionMetrics(start, end, busy, total)
	}
	return s.result(r.ready, k, end, t0, busy, total)
}

// ExecuteCtx runs the schedule on the discrete-event engine and returns
// timing. It runs straight from the schedule's ops, with no named channel
// resources and no occupancy log, on its op graph's lowered skeleton from
// the graph's second run on (see lower.go); Result.ChannelBusy still sums
// each channel's occupancy. A request deadline (or explicit cancel) aborts
// the run with a wrapped *des.CanceledError: the run loop checks the
// context before its first task pop and then before every 64th.
func (s *Schedule) ExecuteCtx(ctx context.Context) (*Result, error) {
	r, _, _, err := s.execute(ctx, nil, nil, false)
	return r, err
}

// ExecuteOnCtx is ExecuteCtx over caller-provided channel resources (index =
// ChannelID), additionally returning the executed task graph for timeline
// export (see internal/trace): task i is transfer i, named by its kind. Each
// resource logs its occupancy intervals. It is the entry point for fault
// injection: the caller may arm resources with SetSlowdownAt/FailAt
// breakpoints before the run, and a failed resource surfaces as a wrapped
// *des.FaultError, never a panic. Cancellation surfaces as a wrapped
// *des.CanceledError (which unwraps further to the context error).
func (s *Schedule) ExecuteOnCtx(ctx context.Context, res []*des.Resource) (*Result, *des.Graph, error) {
	if err := s.checkResources(res); err != nil {
		return nil, nil, err
	}
	r, g, _, err := s.execute(ctx, res, nil, true)
	return r, g, err
}

// checkResources requires a schedule an executor may run (checkFresh) and
// one caller resource per channel.
func (s *Schedule) checkResources(res []*des.Resource) error {
	if err := s.checkFresh(); err != nil {
		return err
	}
	if len(res) != s.Graph.NumChannels() {
		return fmt.Errorf("collective: %d resources for %d channels", len(res), s.Graph.NumChannels())
	}
	return nil
}

// execute is the run behind ExecuteCtx, ExecuteOnCtx,
// ExecuteCheckpointCtx and ResumeOnCtx: it fills a pooled run's des.Flat
// from the ops, runs it, and reads the Result off its columns. res, when
// non-nil, binds one resource per channel; cp, when non-nil, is the
// checkpoint the run resumes from (see fill), and the clock continues from
// it. A resource fault additionally yields a checkpoint of the executed
// prefix; export also returns the run itself as a des.Graph, task i naming
// transfer i by its kind.
func (s *Schedule) execute(ctx context.Context, res []*des.Resource, cp *Checkpoint, export bool) (*Result, *des.Graph, *Checkpoint, error) {
	f := getRun()
	if !export {
		defer putRun(f)
	}
	sk, err := s.fill(f, res, cp)
	if err != nil {
		return nil, nil, nil, err
	}
	ids, stride, err := f.readyIDs(s, sk)
	if err != nil {
		return nil, nil, nil, err
	}
	total, err := f.RunCtx(ctx)
	if fe, ok := err.(*des.FaultError); ok {
		fe.Faults[0].Label = s.ops[fe.Faults[0].TaskID].Kind()
	}
	run := "execution"
	if cp != nil {
		total = max(total, cp.At)
		run = "resumed execution"
	}
	if err != nil {
		var ce *des.CanceledError
		if errors.As(err, &ce) {
			return nil, nil, nil, fmt.Errorf("collective: %s canceled: %w", run, err)
		}
		var next *Checkpoint
		var fe *des.FaultError
		if errors.As(err, &fe) {
			next = s.checkpointFrom(&f.Flat, total)
		}
		return nil, nil, next, fmt.Errorf("collective: %s aborted: %w", run, err)
	}
	if cp != nil {
		total = max(total, slices.Max(f.End)) // the executed prefix's ends too
	}
	if cp == nil && metrics.Default.Enabled() {
		s.publishExecutionMetrics(f.Start, f.End, f.Busy, total)
	}
	r := s.result(ids, stride, f.End, 0, slices.Clone(f.Busy), total)
	var g *des.Graph
	if export {
		g = des.RanGraph(&f.Flat, &Block{s: s}) // transfer i is task i
	}
	return r, g, nil, nil
}

// fill writes the schedule into f's Flat: transfer i is task i, lowered by
// f's lowerer (lower.go). It returns the skeleton the schedule runs on, if
// any, whose successor CSR a plain run (res nil) borrows; any other run
// links the deps CSR into f's own successor CSR. res, when non-nil, is bound one
// resource per channel. cp, when non-nil, is a checkpoint to resume from:
// its executed transfers count as done at their recorded End, a dependency
// on one becomes an earliest-start bound (des.Flat.Link), and each channel
// starts busy until the checkpoint's FreeAt.
//
// fill checks what a run needs before it starts — the topology fingerprint
// and healthy channels under the transfers still to run. It allocates
// nothing once f's columns have grown.
func (s *Schedule) fill(f *run, res []*des.Resource, cp *Checkpoint) (*skeleton, error) {
	if err := s.checkFresh(); err != nil {
		return nil, err
	}
	sk := s.skeleton()
	f.prepare(s)
	f.Reset(len(s.ops), s.Graph.NumChannels())
	for c, r := range res {
		f.Bind(c, r)
		if cp != nil {
			f.FreeAt[c] = max(f.FreeAt[c], cp.FreeAt[c])
		}
	}
	for i := range s.ops {
		if cp != nil && cp.Executed[i] {
			f.Dur[i], f.Res[i] = 0, -1
			f.SetDone(i, cp.End[i])
			continue
		}
		d, ch, err := f.transfer(s, i)
		if err != nil {
			return nil, err
		}
		f.Dur[i], f.Res[i] = d, ch
	}
	if sk != nil && res == nil {
		f.Borrow(&sk.Skeleton)
	} else {
		f.Link(s.depOff, s.deps)
	}
	return sk, nil
}

// checkFresh is every executor's gate: it fails with ErrUnverified for an
// unstamped schedule and with a *StaleScheduleError when the topology
// changed since the schedule was stamped.
func (s *Schedule) checkFresh() error {
	if s.builtFor == 0 {
		return ErrUnverified
	}
	if fp := s.Graph.Fingerprint(); fp != s.builtFor {
		return &StaleScheduleError{Built: s.builtFor, Current: fp}
	}
	return nil
}

// grid returns a rows × k matrix whose rows share one backing array.
func grid[T any](rows, k int) [][]T {
	m := make([][]T, rows)
	cells := make([]T, rows*k)
	for i := range m {
		m[i] = cells[i*k : (i+1)*k : (i+1)*k]
	}
	return m
}

// result assembles the Result of a completed run: ids[i*stride+c] is the
// transfer whose End makes chunk c ready at node i (see lowerer.readyIDs),
// read off the End column end (indexed by transfer id) relative to t0 into
// ChunkReady; busy, indexed by channel, becomes ChannelBusy.
func (s *Schedule) result(ids []int32, stride int, end []des.Time, t0 des.Time, busy []des.Time, total des.Time) *Result {
	k := s.Partition.NumChunks()
	ready := grid[des.Time](len(s.Nodes), k)
	done := make([]des.Time, k)
	for i, row := range ready {
		for c := range row {
			row[c] = end[ids[i*stride+c]] - t0
			done[c] = max(done[c], row[c])
		}
	}
	return &Result{
		Total:       total,
		ChunkReady:  ready,
		ChunkDone:   done,
		Turnaround:  done[0],
		ChannelBusy: busy,
		Partition:   s.Partition,
		InOrder:     s.InOrder,
	}
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
	idx := s.indexNodes(nil)
	// Node buffers start as copies of the inputs.
	buf := make([][]float64, len(inputs))
	for i, in := range inputs {
		buf[i] = append([]float64(nil), in...)
	}
	relay := make([][]float64, len(s.ops)) // relay[id]: op id's relay slot, nil until written

	view := func(b schedcheck.Buf, c, id int) ([]float64, error) {
		if b.Relay >= 0 {
			if int(b.Relay) >= len(relay) || relay[b.Relay] == nil {
				return nil, fmt.Errorf("collective: transfer %d (%s) reads empty relay slot %d", id, s.Label(id), b.Relay)
			}
			return relay[b.Relay], nil
		}
		ni := idx.of(b.NodeID())
		if ni < 0 {
			return nil, fmt.Errorf("collective: transfer %d (%s) references non-participant node %d", id, s.Label(id), b.Node)
		}
		lo := part.Offsets[c]
		return buf[ni][lo : lo+part.Sizes[c]], nil
	}

	order, err := s.topoOrder(nil)
	if err != nil {
		return nil, err
	}
	for _, id := range order {
		op := &s.ops[id]
		if op.Marker() {
			continue
		}
		src, err := view(op.Src, int(op.Chunk), id)
		if err != nil {
			return nil, err
		}
		if op.Dst.Relay >= 0 {
			relay[id] = append([]float64(nil), src...)
			continue
		}
		dst, err := view(op.Dst, int(op.Chunk), id)
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
		out[s.Graph.Channel(op.ChannelID()).To] += s.Partition.Sizes[op.Chunk]
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
// is targets[off[i]:off[i+1]] in id order), read off the deps CSR in one
// counting pass and one filling pass. extra, when non-nil, adds one
// dependency per op: op i also depends on extra[i] when extra[i] >= 0.
func (s *Schedule) topoOrder(extra []int32) ([]int, error) {
	n := len(s.ops)
	off := make([]int32, n+1)
	indeg := make([]int32, n)
	each := func(visit func(i int, d int32)) {
		for i := range s.ops {
			for _, d := range s.depsOf(i) {
				visit(i, d)
			}
			if i < len(extra) && extra[i] >= 0 {
				visit(i, extra[i])
			}
		}
	}
	each(func(i int, d int32) {
		indeg[i]++
		off[d+1]++
	})
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	targets := make([]int32, off[n])
	next := append([]int32(nil), off[:n]...)
	each(func(i int, d int32) {
		targets[next[d]] = int32(i)
		next[d]++
	})
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
		Graph:      s.Graph,
		Nodes:      s.Nodes,
		NumChunks:  s.Partition.NumChunks(),
		ChunkBytes: s.Partition.Sizes,
		InOrder:    s.InOrder,
		Streams:    s.Streams,
		AllReduce:  s.Contract == ContractAllReduce,
		Ops:        s.ops,
		DepOff:     s.depOff,
		DepList:    s.deps,
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
