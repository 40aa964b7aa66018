// Package gpusim is a functional emulation of the paper's proof of concept:
// collectives run as persistent kernels synchronized entirely on the device
// side (Fig. 11). Run interprets any verified schedule — the
// schedcheck.Program that collective.Schedule.Program returns — with one
// persistent kernel goroutine per participant GPU. Kernels share data only
// through the per-GPU buffers and synchronize only through p2psync
// semaphores and, when gradient queuing is on, per-GPU gradient queues
// (Fig. 9). No Go channels, mutexes, or host coordination appear on the data
// path.
//
// The package answers the correctness questions the real-system prototype
// answers: the ops of a schedule, run concurrently, deliver its exact data
// contract without deadlock, chunks arrive in the order the schedule
// promises, relay hops forward transparently, and gradient queuing releases
// layers exactly when their chunks are in. Timing questions are answered by
// the DES-based simulator in internal/collective.
package gpusim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ccube/internal/chunk"
	"ccube/internal/gradqueue"
	"ccube/internal/p2psync"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// stallSpins bounds every device-side wait of a run whose program rides a
// down channel: far more failed spins than a healthy wait needs, few enough
// that the starved kernels give up in well under a second. Programs on
// healthy channels wait unboundedly.
const stallSpins = 1 << 16

// Config holds the optional gradient-queuing setup of one run.
type Config struct {
	// LayerElems enables gradient queuing: element counts per layer (summing
	// to the input length). Each GPU then runs a forward-compute kernel that
	// dequeues layers in order and invokes OnLayer with the layer's freshly
	// reduced gradients.
	LayerElems []int

	// OnLayer is called by GPU g's compute kernel when layer l is dequeued,
	// with a view of the reduced gradient slice. May be nil.
	OnLayer func(gpu, layer int, grad []float32)
}

// StallError reports persistent kernels that exhausted their spin budget —
// the loud-failure outcome for a program riding a down channel. Kernels lists
// one description per stalled kernel.
type StallError struct {
	Kernels []string
}

func (e *StallError) Error() string {
	return fmt.Sprintf("gpusim: %d kernel(s) stalled past their spin budget: %s",
		len(e.Kernels), strings.Join(e.Kernels, "; "))
}

// stallTracker collects stall reports from kernels across goroutines.
type stallTracker struct {
	mu      sync.Mutex
	kernels []string
}

func (s *stallTracker) note(format string, args ...any) {
	mKernelStalls.Inc()
	s.mu.Lock()
	s.kernels = append(s.kernels, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func (s *stallTracker) err() *StallError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.kernels) == 0 {
		return nil
	}
	sort.Strings(s.kernels)
	return &StallError{Kernels: append([]string(nil), s.kernels...)}
}

// Result reports the outcome of one run.
type Result struct {
	// Buffers are the per-GPU buffers after the run, indexed like the
	// program's participants.
	Buffers [][]float32

	// ArrivalOrder[g] lists chunk indices in the order they became final at
	// GPU g (in-order delivery can be checked against it).
	ArrivalOrder [][]int

	// DequeueOrder[g] lists layers in dequeue order (gradient queuing only).
	DequeueOrder [][]int
}

// plan is a program validated as far as the interpreter relies on it, with
// every op assigned to one kernel.
type plan struct {
	kernel  map[topology.NodeID]int // participant -> kernel (GPU) index
	ops     [][]int                 // per kernel, ascending op ids
	dead    []bool                  // op rides a down channel: never delivers
	anyDead bool
}

// newPlan assigns every op to the kernel of the GPU that receives it:
//   - an op marking a chunk final runs on that node's kernel, so each GPU's
//     arrival log and gradient queue have a single writer;
//   - otherwise a node destination runs on that node's kernel;
//   - a relay-slot destination runs on the kernel of its channel's far end,
//     which makes that GPU the forwarder (§IV-A);
//   - a marker with no final node runs on the first participant's kernel.
//
// Each kernel's list is in ascending id order, and every dependency must
// have a lower id than its op. Then the lowest unfinished op always has its
// dependencies done and is next in line on its kernel, so the kernels cannot
// deadlock. Hazard freedom and the data contract are schedcheck's proof;
// newPlan rejects only what would make the interpreter hang or panic.
func newPlan(p *schedcheck.Program) (*plan, error) {
	if p == nil || p.Graph == nil || len(p.Nodes) < 2 || p.NumChunks < 1 {
		return nil, fmt.Errorf("gpusim: program needs a graph, >= 2 participants and >= 1 chunk")
	}
	pl := &plan{
		kernel: make(map[topology.NodeID]int, len(p.Nodes)),
		ops:    make([][]int, len(p.Nodes)),
		dead:   make([]bool, len(p.Ops)),
	}
	for i, n := range p.Nodes {
		pl.kernel[n] = i
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		if op.ID != i || op.Chunk < 0 || op.Chunk >= p.NumChunks {
			return nil, fmt.Errorf("gpusim: op %d has id %d, chunk %d of %d", i, op.ID, op.Chunk, p.NumChunks)
		}
		for _, d := range op.Deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("gpusim: op %d depends on op %d: ids must be a topological order", i, d)
			}
		}
		on := p.Nodes[0]
		if !op.Marker() {
			if int(op.Channel) >= p.Graph.NumChannels() || !pl.bufOK(p, op.Src, i, false) || !pl.bufOK(p, op.Dst, i, true) {
				return nil, fmt.Errorf("gpusim: op %d has a bad channel or buffer", i)
			}
			ch := p.Graph.Channel(op.Channel)
			pl.dead[i] = ch.Down()
			pl.anyDead = pl.anyDead || ch.Down()
			on = ch.To
			if op.Dst.IsNode() {
				on = op.Dst.Node
			}
		}
		if op.Final >= 0 {
			on = op.Final
		}
		g, ok := pl.kernel[on]
		if !ok {
			return nil, fmt.Errorf("gpusim: op %d runs on node %d, which is not a participant", i, on)
		}
		pl.ops[g] = append(pl.ops[g], i)
	}
	return pl, nil
}

// bufOK reports whether op i may read (or, with write, write) buffer b: a
// participant's region, or a relay slot — its own when writing, an earlier
// op's when reading.
func (pl *plan) bufOK(p *schedcheck.Program, b schedcheck.Buf, i int, write bool) bool {
	if b.IsRelay() {
		if write {
			return b.Relay == i
		}
		return b.Relay < i && p.Ops[b.Relay].Dst.Relay == b.Relay
	}
	_, ok := pl.kernel[b.Node]
	return b.IsNode() && ok
}

// Run executes the program over per-GPU input vectors (indexed like
// p.Nodes, one shared length) and returns the resulting buffers. Elements
// split into the program's chunks the way Schedule.ExecuteData splits them.
// An op whose channel is down never delivers; a program riding one bounds
// every wait and fails with *StallError instead of hanging.
func Run(p *schedcheck.Program, inputs [][]float32, cfg Config) (*Result, error) {
	return run(p, inputs, cfg, false)
}

// run is Run; bounded forces bounded waits even when the program rides no
// down channel.
func run(p *schedcheck.Program, inputs [][]float32, cfg Config, bounded bool) (*Result, error) {
	pl, err := newPlan(p)
	if err != nil {
		return nil, err
	}
	if len(inputs) != len(p.Nodes) {
		return nil, fmt.Errorf("gpusim: %d inputs for %d participants", len(inputs), len(p.Nodes))
	}
	elems := len(inputs[0])
	for g, in := range inputs {
		if len(in) != elems {
			return nil, fmt.Errorf("gpusim: GPU %d has %d elements, want %d", g, len(in), elems)
		}
	}
	if elems < p.NumChunks {
		return nil, fmt.Errorf("gpusim: %d elements cannot form %d chunks", elems, p.NumChunks)
	}
	part := chunk.SplitAtMost(int64(elems), p.NumChunks)
	budget := 0
	if bounded || pl.anyDead {
		budget = stallSpins
	}

	res := &Result{
		Buffers:      make([][]float32, len(inputs)),
		ArrivalOrder: make([][]int, len(inputs)),
	}
	for g := range inputs {
		res.Buffers[g] = append([]float32(nil), inputs[g]...)
		res.ArrivalOrder[g] = make([]int, 0, p.NumChunks) // prealloc: an AllReduce makes every chunk final once per GPU
	}

	// Gradient queues (optional).
	var queues []*gradqueue.Queue
	layerOff := make([]int, len(cfg.LayerElems)+1)
	if cfg.LayerElems != nil {
		if !p.AllReduce {
			return nil, fmt.Errorf("gpusim: gradient queuing needs a program with the AllReduce contract")
		}
		layerBytes := make([]int64, len(cfg.LayerElems))
		for i, e := range cfg.LayerElems {
			if e < 0 {
				return nil, fmt.Errorf("gpusim: layer %d has %d elements", i, e)
			}
			layerOff[i+1] = layerOff[i] + e
			layerBytes[i] = int64(e)
		}
		if layerOff[len(cfg.LayerElems)] != elems {
			return nil, fmt.Errorf("gpusim: layers cover %d elements, inputs have %d", layerOff[len(cfg.LayerElems)], elems)
		}
		table := chunk.BuildLayerChunkTable(layerBytes, part)
		queues = make([]*gradqueue.Queue, len(inputs))
		res.DequeueOrder = make([][]int, len(inputs))
		for g := range queues {
			queues[g] = gradqueue.New(p.NumChunks, table)
			res.DequeueOrder[g] = make([]int, 0, len(cfg.LayerElems)) // prealloc: each layer dequeues exactly once
		}
	}
	mRuns.Inc()

	done := make([]p2psync.Semaphore, len(p.Ops)) // done[i] is posted once, when op i completes
	relay := make([][]float32, len(p.Ops))
	view := func(b schedcheck.Buf, c int) []float32 {
		if b.IsRelay() {
			return relay[b.Relay]
		}
		lo := part.Offsets[c]
		return res.Buffers[pl.kernel[b.Node]][lo : lo+part.Sizes[c]]
	}
	label := func(i int) string { return fmt.Sprintf("#%d(%s)", i, p.Label(i)) }
	st := &stallTracker{}
	var wg sync.WaitGroup
	for g := range pl.ops {
		wg.Add(1)
		go func() { // persistent kernel for GPU g: its ops in id order
			defer wg.Done()
			for _, id := range pl.ops[g] {
				op := &p.Ops[id]
				for _, d := range op.Deps {
					if !done[d].CheckBounded(1, budget) {
						st.note("gpu %d kernel: op %s starved waiting for op %s", g, label(id), label(d))
						return
					}
				}
				if pl.dead[id] {
					st.note("gpu %d kernel: op %s never arrives over down channel %d", g, label(id), op.Channel)
					return
				}
				if !op.Marker() {
					src := view(op.Src, op.Chunk)
					switch {
					case op.Dst.IsRelay():
						relay[id] = append([]float32(nil), src...)
					case op.Accumulate:
						dst := view(op.Dst, op.Chunk)
						for j := range dst {
							dst[j] += src[j]
						}
					default:
						copy(view(op.Dst, op.Chunk), src)
					}
				}
				if op.Final >= 0 {
					res.ArrivalOrder[g] = append(res.ArrivalOrder[g], op.Chunk)
					if queues != nil {
						queues[g].Enqueue(op.Chunk)
					}
				}
				done[id].Post()
			}
		}()
	}
	for g := range queues {
		wg.Add(1)
		go func() { // forward-compute kernel for GPU g
			defer wg.Done()
			for {
				l, ok, stalled := queues[g].DequeueLayerBounded(budget)
				if stalled {
					st.note("gpu %d compute kernel: layer %d never completed", g, l)
					return
				}
				if !ok {
					return
				}
				res.DequeueOrder[g] = append(res.DequeueOrder[g], l)
				if cfg.OnLayer != nil {
					cfg.OnLayer(g, l, res.Buffers[g][layerOff[l]:layerOff[l+1]])
				}
			}
		}()
	}
	wg.Wait()
	if err := st.err(); err != nil {
		return nil, err
	}
	return res, nil
}
