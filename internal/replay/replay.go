// Package replay executes recorded operation traces — the sequence of
// compute phases and collectives a training framework issues — against any
// collective algorithm on any modeled topology. Trace replay is how
// production collective work is usually evaluated (a framework logs its
// communication pattern once; backends are compared by replaying it), and
// it lets downstream users study C-Cube on workloads this repository does
// not model natively.
//
// A trace is a JSON document:
//
//	{
//	  "name": "two-layer-ddp",
//	  "ops": [
//	    {"kind": "compute", "compute_us": 5000},
//	    {"kind": "allreduce", "bytes": 104857600},
//	    {"kind": "compute", "compute_us": 2500},
//	    {"kind": "allgather", "bytes": 1048576}
//	  ]
//	}
//
// Ops execute in order: a compute op occupies every GPU stream for its
// duration; a collective op runs the configured algorithm and completes
// when every GPU holds its result. Kind "allreduce" honours the replay's
// algorithm selection; the standalone primitives always use their canonical
// implementation.
package replay

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/topology"
)

// Op is one traced operation.
type Op struct {
	Kind      string  `json:"kind"`
	Bytes     int64   `json:"bytes,omitempty"`
	ComputeUs float64 `json:"compute_us,omitempty"`
}

// Trace is a named operation sequence.
type Trace struct {
	Name string `json:"name"`
	Ops  []Op   `json:"ops"`
}

// Read parses a trace from JSON.
func Read(r io.Reader) (Trace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var t Trace
	if err := dec.Decode(&t); err != nil {
		return Trace{}, fmt.Errorf("replay: parsing trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}

// Write serializes a trace to JSON.
func Write(w io.Writer, t Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// Validate checks trace well-formedness.
func (t Trace) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("replay: trace has no name")
	}
	if len(t.Ops) == 0 {
		return fmt.Errorf("replay: trace %q has no ops", t.Name)
	}
	for i, op := range t.Ops {
		switch op.Kind {
		case "compute":
			if op.ComputeUs <= 0 {
				return fmt.Errorf("replay: op %d: compute with compute_us %v", i, op.ComputeUs)
			}
		case "allreduce", "broadcast", "reduce", "reducescatter", "allgather":
			if op.Bytes <= 0 {
				return fmt.Errorf("replay: op %d: %s with %d bytes", i, op.Kind, op.Bytes)
			}
		default:
			return fmt.Errorf("replay: op %d: unknown kind %q", i, op.Kind)
		}
	}
	return nil
}

// Config selects the platform and the AllReduce algorithm for the replay.
type Config struct {
	Graph     *topology.Graph
	Algorithm collective.Algorithm // for "allreduce" ops

	// AllowSharedChannels is passed to the collective builders.
	AllowSharedChannels bool
}

// OpResult is one executed op's timing.
type OpResult struct {
	Op       Op
	Start    des.Time
	End      des.Time
	Duration des.Time
}

// Result is a completed replay.
type Result struct {
	Trace       Trace
	Total       des.Time
	ComputeTime des.Time // sum of compute op durations
	CommTime    des.Time // sum of collective op durations
	PerOp       []OpResult
}

// CommFraction returns the share of total time spent in collectives.
func (r *Result) CommFraction() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.CommTime) / float64(r.Total)
}

// Run replays the trace and returns per-op and aggregate timing.
func Run(t Trace, cfg Config) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("replay: nil graph")
	}
	nodes := cfg.Graph.GPUs()
	if len(nodes) < 2 {
		return nil, fmt.Errorf("replay: %d GPUs", len(nodes))
	}

	g := des.NewGraph()
	chres := cfg.Graph.Resources()
	streams := make([]*des.Resource, len(nodes))
	for i, n := range nodes {
		streams[i] = des.NewResource(fmt.Sprintf("stream:%s", cfg.Graph.Node(n).Name))
	}

	res := &Result{Trace: t}
	// prev joins the previous op's completion; each op starts after it.
	prev := -1
	opEnds := make([]int, len(t.Ops))
	for i, op := range t.Ops {
		switch op.Kind {
		case "compute":
			d := des.Time(op.ComputeUs * float64(des.Microsecond))
			var ids []int
			for s := range streams {
				var deps []int
				if prev >= 0 {
					deps = append(deps, prev)
				}
				ids = append(ids, g.Add(fmt.Sprintf("op%d:compute:g%d", i, s), streams[s], d, deps...))
			}
			prev = g.Add(fmt.Sprintf("op%d:done", i), nil, 0, ids...)

		default:
			sched, err := buildOp(cfg, op)
			if err != nil {
				return nil, fmt.Errorf("replay: op %d: %w", i, err)
			}
			ready, err := sched.Instantiate(g, chres, prev)
			if err != nil {
				return nil, fmt.Errorf("replay: op %d: %w", i, err)
			}
			prev = g.Add(fmt.Sprintf("op%d:done", i), nil, 0, slices.Concat(ready...)...)
		}
		opEnds[i] = prev
	}

	total, err := g.RunCtx(context.TODO())
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	res.Total = total
	var lastEnd des.Time
	for i, op := range t.Ops {
		end := g.End(opEnds[i])
		r := OpResult{Op: op, Start: lastEnd, End: end, Duration: end - lastEnd}
		res.PerOp = append(res.PerOp, r)
		if op.Kind == "compute" {
			res.ComputeTime += r.Duration
		} else {
			res.CommTime += r.Duration
		}
		lastEnd = end
	}
	for _, r := range chres {
		if err := r.ValidateSerialized(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// buildOp constructs the schedule for one collective op.
func buildOp(cfg Config, op Op) (*collective.Schedule, error) {
	switch op.Kind {
	case "allreduce":
		return collective.Build(collective.Config{
			Graph:               cfg.Graph,
			Algorithm:           cfg.Algorithm,
			Bytes:               op.Bytes,
			AllowSharedChannels: cfg.AllowSharedChannels,
		})
	case "broadcast":
		return collective.BuildPrimitive(collective.PrimitiveConfig{
			Graph: cfg.Graph, Primitive: collective.PrimBroadcast, Bytes: op.Bytes,
			AllowSharedChannels: cfg.AllowSharedChannels,
		})
	case "reduce":
		return collective.BuildPrimitive(collective.PrimitiveConfig{
			Graph: cfg.Graph, Primitive: collective.PrimReduce, Bytes: op.Bytes,
			AllowSharedChannels: cfg.AllowSharedChannels,
		})
	case "reducescatter":
		return collective.BuildPrimitive(collective.PrimitiveConfig{
			Graph: cfg.Graph, Primitive: collective.PrimReduceScatter, Bytes: op.Bytes,
		})
	case "allgather":
		return collective.BuildPrimitive(collective.PrimitiveConfig{
			Graph: cfg.Graph, Primitive: collective.PrimAllGather, Bytes: op.Bytes,
		})
	default:
		return nil, fmt.Errorf("unknown kind %q", op.Kind)
	}
}
