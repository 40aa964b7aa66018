// Package train simulates one steady-state iteration of synchronous
// data-parallel training on a multi-GPU node, in each of the paper's five
// configurations (Fig. 13):
//
//	B  — baseline double-tree AllReduce, forward waits for all communication
//	C1 — overlapped double tree (reduction/broadcast chained), forward waits
//	C2 — baseline double tree + gradient queuing: forward layers chained
//	     onto chunk arrivals
//	CC — C-Cube: C1 + C2
//	R  — NCCL-style ring AllReduce, forward waits (one-shot chaining is not
//	     possible on ring: Observation #3)
//
// The simulated cycle follows the paper's Fig. 2(c): backward propagation of
// iteration i, then a single one-shot AllReduce, overlapped (in chained
// modes) with the forward propagation of iteration i+1. Backward of i+1
// cannot start before forward of i+1 ends, so the steady-state iteration
// time is the makespan of backward -> communication -> (chained) forward.
package train

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ccube/internal/chunk"
	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/fault"
	"ccube/internal/metrics"
	"ccube/internal/topology"
)

// Mode is one of the paper's evaluation configurations.
type Mode string

const (
	ModeB  Mode = "B"
	ModeC1 Mode = "C1"
	ModeC2 Mode = "C2"
	ModeCC Mode = "CC"
	ModeR  Mode = "R"
)

// Modes lists all configurations in the paper's presentation order.
func Modes() []Mode { return []Mode{ModeB, ModeC1, ModeC2, ModeR, ModeCC} }

// algorithm maps a mode to its collective algorithm.
func (m Mode) algorithm() (collective.Algorithm, error) {
	switch m {
	case ModeB, ModeC2:
		return collective.AlgDoubleTree, nil
	case ModeC1, ModeCC:
		return collective.AlgDoubleTreeOverlap, nil
	case ModeR:
		return collective.AlgRing, nil
	default:
		return 0, fmt.Errorf("train: unknown mode %q", m)
	}
}

// chained reports whether the mode chains forward computation onto chunk
// arrivals via gradient queuing.
func (m Mode) chained() bool { return m == ModeC2 || m == ModeCC }

// DefaultDetourSMTax is the fraction of a detour GPU's compute throughput
// held by its detour-forwarding kernels while they are resident. The
// kernels are launched with the one-shot collective and exit when it
// completes, so they contend only with the *forward* pass that overlaps the
// communication — backward runs before the collective is invoked and is
// unaffected. The paper measures 3-4% end-to-end slowdown on GPU0/GPU1
// (Fig. 15); the kernels reserve a few SMs out of the V100's 80.
const DefaultDetourSMTax = 0.08

// Config describes one training-iteration simulation.
type Config struct {
	Model  dnn.Model
	Batch  int // per-GPU batch size
	Device dnn.Device
	Graph  *topology.Graph
	Mode   Mode

	// Nodes are the participating GPUs (nil = all GPUs in the graph).
	Nodes []topology.NodeID

	// Cluster switches the simulation to a multi-node hierarchical
	// collective (intra-box tree + inter-box tree + intra-box broadcast).
	// When set, Graph must be Cluster.Graph and the mode maps to the
	// hierarchy: B and C2 run phase-barriered, C1 and CC run chunk-chained
	// across levels; R is not supported (no ring embedding spans the
	// fabric).
	Cluster *topology.MultiNode

	// Chunks overrides the AllReduce chunk count (0 = cost-model optimum).
	Chunks int

	// DetourSMTax overrides DefaultDetourSMTax (set negative to disable).
	DetourSMTax float64

	// AllowSharedChannels is passed through to the collective builder for
	// topologies without duplicated links.
	AllowSharedChannels bool

	// ComputeScale optionally slows individual GPUs (straggler modeling:
	// thermal throttling, noisy neighbors). ComputeScale[i] multiplies GPU
	// i's compute durations; entries must be >= 1, nil means uniform.
	// Synchronous data parallelism pays the slowest GPU: the one-shot
	// collective waits for its backward, so one straggler stretches every
	// iteration.
	ComputeScale []float64

	// Faults optionally injects link/GPU faults into the iteration. Static
	// link deaths are repaired before launch (the schedule detours around
	// them); static degradations slow the affected transfers; static GPUSlow
	// events slow both the GPU's compute (straggler model) and its link
	// engines. Timed events (At > 0) are armed on the channel resources — a
	// link dying mid-iteration aborts the run with a structured error, never
	// a hang. The graph's health state is restored before returning.
	Faults *fault.Plan
}

// Result reports one simulated iteration.
type Result struct {
	Mode Mode

	// IterTime is the steady-state iteration time (the slowest GPU).
	IterTime des.Time

	// PerGPU is each GPU's own iteration completion time (Fig. 15 compares
	// detour vs non-detour GPUs on this).
	PerGPU []des.Time

	// Normalized is ideal-compute-time / IterTime: 1.0 means communication
	// is fully hidden and the system achieves linear speedup (Fig. 13's
	// y-axis).
	Normalized float64

	// ComputeTime is the single-GPU forward+backward time (the ideal).
	ComputeTime des.Time

	// CommTime is the standalone AllReduce completion time (no overlap with
	// compute), for decomposition analysis.
	CommTime des.Time

	// Turnaround is when the first chunk was available at every GPU,
	// relative to communication start.
	Turnaround des.Time

	// FirstForwardWait is how long the first forward layer stalled after
	// backward finished, waiting for its gradients.
	FirstForwardWait des.Time

	// Bubbles is the total stall time inside the forward pass (after the
	// first layer started) on the critical GPU — the dotted arrows of
	// Fig. 16. Zero means perfect chaining.
	Bubbles des.Time

	// CommDone is when the in-pipeline AllReduce delivered its last chunk to
	// the critical GPU (absolute virtual time). In chained modes (C2, CC)
	// early forward layers start strictly before it — the C2 benefit.
	CommDone des.Time

	// LayerForwardStart[l] is the absolute virtual start time of forward
	// layer l on the critical GPU.
	LayerForwardStart []des.Time

	// LayerDequeueWait[l] is how long forward layer l on the critical GPU
	// waited for its gradients after its compute dependency (previous layer,
	// or backward for l=0) had finished — the per-layer gradient-queue wait.
	LayerDequeueWait []des.Time

	// Graph is the executed iteration pipeline, for timeline export
	// (internal/trace).
	Graph *des.Graph
}

// Efficiency returns Normalized as a percentage.
func (r *Result) Efficiency() float64 { return r.Normalized * 100 }

// validate checks the common configuration fields and defaults Graph from
// the cluster when one is set.
func (cfg *Config) validate() error {
	if err := cfg.Model.Validate(); err != nil {
		return err
	}
	if cfg.Batch < 1 {
		return fmt.Errorf("train: batch %d", cfg.Batch)
	}
	if cfg.Cluster != nil {
		if cfg.Graph == nil {
			cfg.Graph = cfg.Cluster.Graph
		} else if cfg.Graph != cfg.Cluster.Graph {
			return fmt.Errorf("train: Graph must be Cluster.Graph when Cluster is set")
		}
	}
	if cfg.Graph == nil {
		return fmt.Errorf("train: nil graph")
	}
	return nil
}

// device resolves the compute model (default: V100).
func (cfg *Config) device() dnn.Device {
	if cfg.Device.PeakFLOPS == 0 {
		return dnn.V100()
	}
	return cfg.Device
}

// buildSchedule constructs the mode's collective schedule over the given
// participants.
func (cfg *Config) buildSchedule(nodes []topology.NodeID) (*collective.Schedule, error) {
	if cfg.Cluster != nil {
		switch cfg.Mode {
		case ModeB, ModeC2:
			return collective.BuildHierarchical(collective.HierarchicalConfig{
				Cluster: cfg.Cluster, Bytes: cfg.Model.GradientBytes(),
				Chunks: cfg.Chunks, Chained: false,
			})
		case ModeC1, ModeCC:
			return collective.BuildHierarchical(collective.HierarchicalConfig{
				Cluster: cfg.Cluster, Bytes: cfg.Model.GradientBytes(),
				Chunks: cfg.Chunks, Chained: true,
			})
		default:
			return nil, fmt.Errorf("train: mode %s not supported on a multi-node cluster", cfg.Mode)
		}
	}
	alg, err := cfg.Mode.algorithm()
	if err != nil {
		return nil, err
	}
	// BuildCached: iteration sweeps rebuild the same (topology, mode, model)
	// schedule for every cell; the memoized copy is already verified.
	return collective.BuildCached(collective.Config{
		Graph:               cfg.Graph,
		Algorithm:           alg,
		Nodes:               nodes,
		Bytes:               cfg.Model.GradientBytes(),
		Chunks:              cfg.Chunks,
		AllowSharedChannels: cfg.AllowSharedChannels,
	})
}

// RunCtx simulates one iteration and returns its timing decomposition,
// with the executed pipeline graph on Result.Graph for timeline export
// (internal/trace). A deadline or explicit cancel aborts both
// discrete-event runs the iteration performs (the standalone collective and
// the full pipeline graph) at their next checkpoint, surfacing a wrapped
// *des.CanceledError.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	//lint:ignore virtual-time host-side instrumentation only: wallStart feeds the metrics exporter, never the DES clock
	wallStart := time.Now()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	alg, err := cfg.Mode.algorithm()
	if err != nil {
		return nil, err
	}
	nodes := cfg.Nodes
	if nodes == nil {
		nodes = cfg.Graph.GPUs()
	}

	// Build the communication schedule first: its chunk partition defines
	// the layer-chunk table for chaining, and its detour assignment defines
	// the SM tax.
	sched, err := cfg.buildSchedule(nodes)
	if err != nil {
		return nil, err
	}

	// Fault injection: the schedule above was built for the healthy fabric;
	// apply the static faults and repair the schedule around any dead links
	// before anything executes.
	if !cfg.Faults.Empty() {
		if err := cfg.Faults.Validate(cfg.Graph); err != nil {
			return nil, err
		}
		revert := cfg.Faults.Apply(cfg.Graph)
		defer revert()
		repaired, _, err := collective.RepairSchedule(sched, cfg.Graph.DownChannels(), nil)
		if err != nil {
			return nil, err
		}
		sched = repaired
	}

	// Standalone communication time and turnaround for the decomposition.
	commRes, err := sched.ExecuteCtx(ctx)
	if err != nil {
		return nil, err
	}

	dev := cfg.device()
	fwd := dev.FwdTimes(cfg.Model, cfg.Batch)
	bwd := dev.BwdTimes(cfg.Model, cfg.Batch)
	computeTime := dev.IterTime(cfg.Model, cfg.Batch)

	// The iteration pipeline graph.
	g := des.NewGraph()
	chres := cfg.Graph.Resources()
	cfg.Faults.ApplyToResources(cfg.Graph, chres)
	streams := make([]*des.Resource, len(nodes))
	tax := cfg.DetourSMTax
	if tax == 0 {
		tax = DefaultDetourSMTax
	}
	detour := make(map[topology.NodeID]bool)
	for _, n := range sched.DetourNodes() {
		detour[n] = true
	}
	if cfg.ComputeScale != nil && len(cfg.ComputeScale) != len(nodes) {
		return nil, fmt.Errorf("train: %d compute scales for %d GPUs",
			len(cfg.ComputeScale), len(nodes))
	}
	faultFactor := func(int) float64 { return 1 }
	if !cfg.Faults.Empty() {
		maxID := 0
		for _, n := range nodes {
			if int(n) > maxID {
				maxID = int(n)
			}
		}
		gf := cfg.Faults.GPUFactors(maxID + 1)
		faultFactor = func(i int) float64 { return gf[nodes[i]] }
	}
	straggler := func(i int) float64 {
		s := 1.0
		if cfg.ComputeScale != nil && cfg.ComputeScale[i] >= 1 {
			s = cfg.ComputeScale[i]
		}
		return s * faultFactor(i)
	}
	fwdScale := make([]float64, len(nodes))
	for i, n := range nodes {
		streams[i] = des.NewResource(fmt.Sprintf("stream:%s", cfg.Graph.Node(n).Name))
		fwdScale[i] = straggler(i)
		if tax > 0 && detour[n] {
			fwdScale[i] *= 1 / (1 - tax)
		}
	}

	// Backward pass, layers L-1..0, on every GPU's compute stream.
	lastBwd := make([]int, len(nodes))
	for i := range nodes {
		prev := -1
		for l := len(bwd) - 1; l >= 0; l-- {
			var deps []int
			if prev >= 0 {
				deps = append(deps, prev)
			}
			dur := des.Time(float64(bwd[l]) * straggler(i))
			prev = g.Add(fmt.Sprintf("bwd:g%d:l%d", i, l), streams[i], dur, deps...)
		}
		lastBwd[i] = prev
	}
	bwdDone := g.Add("bwd-done", nil, 0, lastBwd...)

	// One-shot AllReduce after backward (paper §II-B).
	ready, err := sched.Instantiate(g, chres, bwdDone)
	if err != nil {
		return nil, err
	}

	// Forward pass of the next iteration.
	table := chunk.BuildLayerChunkTable(cfg.Model.LayerBytes(), sched.Partition)
	numTrees := 1
	if cfg.Cluster == nil &&
		(alg == collective.AlgDoubleTree || alg == collective.AlgDoubleTreeOverlap) {
		numTrees = 2
	}
	commDone := make([]int, len(nodes)) // all chunks at GPU i
	for i := range nodes {
		k := sched.Partition.NumChunks()
		deps := make([]int, 0, numTrees)
		for t := 0; t < numTrees && t < k; t++ {
			// Per-tree FIFO ordering makes the last chunk of each tree imply
			// all of that tree's chunks.
			last := lastTreeChunkAtMost(k-1, k, numTrees, t)
			if last >= 0 {
				deps = append(deps, ready[i][last])
			}
		}
		if !sched.InOrder {
			// Ring: no per-GPU ordering guarantee; join on every chunk.
			deps = append(deps[:0], ready[i]...)
		}
		commDone[i] = g.Add(fmt.Sprintf("comm-done:g%d", i), nil, 0, deps...)
	}

	fwdTasks := make([][]int, len(nodes))
	for i := range nodes {
		fwdTasks[i] = make([]int, len(fwd))
		prev := -1
		for l := 0; l < len(fwd); l++ {
			var deps []int
			if prev >= 0 {
				deps = append(deps, prev)
			}
			if cfg.Mode.chained() && sched.InOrder {
				// Gradient queuing: layer l dequeues once chunks
				// 0..LastChunk[l] have arrived; per-tree in-order arrival
				// means depending on each tree's latest chunk in that prefix.
				lastChunk := table.LastChunk[l]
				for t := 0; t < numTrees; t++ {
					c := lastTreeChunkAtMost(lastChunk, sched.Partition.NumChunks(), numTrees, t)
					if c >= 0 {
						deps = append(deps, ready[i][c])
					}
				}
			} else {
				deps = append(deps, commDone[i])
			}
			dur := des.Time(float64(fwd[l]) * fwdScale[i])
			prev = g.Add(fmt.Sprintf("fwd:g%d:l%d", i, l), streams[i], dur, deps...)
			fwdTasks[i][l] = prev
		}
	}

	if _, err := g.RunCtx(ctx); err != nil {
		var ce *des.CanceledError
		if errors.As(err, &ce) {
			return nil, fmt.Errorf("train: iteration canceled: %w", err)
		}
		return nil, fmt.Errorf("train: iteration aborted by mid-run fault: %w", err)
	}

	res := &Result{
		Mode:        cfg.Mode,
		PerGPU:      make([]des.Time, len(nodes)),
		ComputeTime: computeTime,
		CommTime:    commRes.Total,
		Turnaround:  commRes.Turnaround,
		Graph:       g,
	}
	bwdEnd := g.End(bwdDone)
	for i := range nodes {
		res.PerGPU[i] = g.End(fwdTasks[i][len(fwd)-1])
		if res.PerGPU[i] > res.IterTime {
			res.IterTime = res.PerGPU[i]
			firstStart := g.Start(fwdTasks[i][0])
			res.FirstForwardWait = firstStart - bwdEnd
			res.CommDone = g.End(commDone[i])
			if res.LayerForwardStart == nil {
				res.LayerForwardStart = make([]des.Time, len(fwd))
				res.LayerDequeueWait = make([]des.Time, len(fwd))
			}
			var bubbles des.Time
			for l := 0; l < len(fwd); l++ {
				id := fwdTasks[i][l]
				res.LayerForwardStart[l] = g.Start(id)
				computeFree := bwdEnd
				if l > 0 {
					computeFree = g.End(fwdTasks[i][l-1])
					if gap := g.Start(id) - computeFree; gap > 0 {
						bubbles += gap
					}
				}
				if wait := g.Ready(id) - computeFree; wait > 0 {
					res.LayerDequeueWait[l] = wait
				} else {
					res.LayerDequeueWait[l] = 0
				}
			}
			res.Bubbles = bubbles
		}
	}
	res.Normalized = float64(computeTime) / float64(res.IterTime)
	if metrics.Default.Enabled() {
		//lint:ignore virtual-time host-side instrumentation only: exported wall time, never fed into simulated results
		publishIteration(res, bwdEnd, time.Since(wallStart))
	}

	for _, r := range chres {
		if err := r.ValidateSerialized(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// lastTreeChunkAtMost returns the largest chunk index <= limit assigned to
// tree t under round-robin assignment over k chunks, or -1 if none.
func lastTreeChunkAtMost(limit, k, numTrees, t int) int {
	if limit >= k {
		limit = k - 1
	}
	for c := limit; c >= 0; c-- {
		if c%numTrees == t {
			return c
		}
	}
	return -1
}
