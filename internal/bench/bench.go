// Package bench runs the simulator's engine micro-benchmarks in-process, so
// ccube-bench can record machine-readable performance numbers (wall time,
// allocations) next to the figures they time. The benchmark bodies mirror
// internal/des's *_test benchmarks over the exported API; the alloc budgets
// themselves are enforced both here (CheckBudgets, run by ccube-bench and CI)
// and by the des/server packages' AllocsPerRun tests.
package bench

import (
	"context"
	"fmt"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/report"
	"ccube/internal/server"
	"ccube/internal/topology"
)

// Result is one micro-benchmark outcome in BENCH_ccube.json form.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

func run(name string, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchmark pairs a bench body with the name it reports under, so the bench
// list and the budget table stay checkable against each other (bench_test.go
// fails if a bench is added without a budget decision).
type benchmark struct {
	name string
	fn   func(b *testing.B)
}

// benchmarks returns the engine micro-benchmark suite.
func benchmarks() []benchmark {
	return []benchmark{
		{"EngineScheduleRun1024", func(b *testing.B) {
			e := des.NewEngine()
			const n = 1024
			e.Reserve(n)
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := e.Now()
				for j := 0; j < n; j++ {
					e.At(base+des.Time(j%13), fn)
				}
				if _, err := e.RunCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"EngineBatchDrain1024", func(b *testing.B) {
			// Batched-drain stress: 1024 events on only 4 distinct
			// timestamps, so RunCtx drains runs of ~256 equal-time events per
			// batch — the shape the equal-timestamp drain is built for
			// (chunked collectives fire whole waves at one simulated time).
			e := des.NewEngine()
			const n = 1024
			e.Reserve(n)
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := e.Now()
				for j := 0; j < n; j++ {
					e.At(base+des.Time(j%4), fn)
				}
				if _, err := e.RunCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"EngineScheduleCancelRun1024", func(b *testing.B) {
			e := des.NewEngine()
			const n = 1024
			e.Reserve(n)
			fn := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := e.Now()
				for j := 0; j < n; j++ {
					h := e.At(base+des.Time(j%13), fn)
					if j%2 == 0 {
						h.Cancel()
					}
				}
				if _, err := e.RunCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"GraphPipeline8x256", func(b *testing.B) {
			// Steady-state graph reuse: the graph, its resources, and every
			// backing array are built once; each op Resets and re-Adds the
			// 8×256 pipeline. This is the serve-path shape — ccube-serve
			// replays structurally identical graphs per request — so the
			// per-op cost must be the task work, not allocator traffic.
			const d, k = 8, 256
			g := des.NewGraph()
			g.Reserve(d * k)
			g.ReserveEdges((d - 1) * k)
			links := make([]*des.Resource, d)
			for l := range links {
				links[l] = des.NewResource("link")
				links[l].Prealloc(k)
			}
			prev := make([]int, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Reset()
				for _, r := range links {
					r.Reset()
				}
				for l := 0; l < d; l++ {
					for c := 0; c < k; c++ {
						if l == 0 {
							prev[c] = g.Add("hop", links[l], 100)
						} else {
							prev[c] = g.Add("hop", links[l], 100, prev[c])
						}
					}
				}
				if _, err := g.RunCtx(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ScheduleCacheHit", func(b *testing.B) {
			// Warm-path lookup: the key must build and compare without
			// heap traffic, or the per-request fast path in ccube-serve
			// allocates on every plan/simulate call. Uses a private cache
			// so the shared DefaultCache counters stay untouched.
			c := collective.NewCache()
			cfg := collective.Config{
				Graph:     topology.DGX1(topology.DefaultDGX1Config()),
				Algorithm: collective.AlgDoubleTreeOverlap,
				Bytes:     16 << 20,
			}
			if _, err := c.Build(cfg); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ServeEncodePlan", func(b *testing.B) {
			r := PlanFixture()
			buf := r.AppendJSON(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = r.AppendJSON(buf[:0])
			}
			sinkLen = len(buf)
		}},
		{"ServeEncodeSimulate", func(b *testing.B) {
			r := SimulateFixture()
			buf := r.AppendJSON(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = r.AppendJSON(buf[:0])
			}
			sinkLen = len(buf)
		}},
	}
}

// sinkLen keeps the encoder benchmarks' output alive past the loop.
var sinkLen int

// PlanFixture is a representative /v1/plan response — a full candidate
// ranking plus its rendered table — for the encoder benchmarks and tests.
func PlanFixture() *server.PlanResponse {
	algorithms := []string{
		"ring", "tree", "tree-overlap", "double-tree",
		"double-tree-overlap", "halving-doubling",
	}
	t := report.New("AllReduce plan: dgx1, 16M", "algorithm", "total", "turnaround", "in-order")
	cands := make([]server.PlanCandidate, 0, len(algorithms))
	for i, alg := range algorithms {
		c := server.PlanCandidate{
			Algorithm:    alg,
			TotalNS:      int64(1_200_000 + i*137_000),
			Total:        fmt.Sprintf("%.3fms", float64(1_200_000+i*137_000)/1e6),
			TurnaroundNS: int64(950_000 + i*113_000),
			Turnaround:   fmt.Sprintf("%.3fms", float64(950_000+i*113_000)/1e6),
			InOrder:      i%2 == 0,
		}
		cands = append(cands, c)
		t.AddRow(c.Algorithm, c.Total, c.Turnaround, fmt.Sprintf("%v", c.InOrder))
	}
	t.AddNote("objective: latency; lower total is better")
	return &server.PlanResponse{
		Topology:   "dgx1",
		Bytes:      16 << 20,
		Objective:  "latency",
		Best:       cands[0],
		Candidates: cands,
		Table:      t,
	}
}

// SimulateFixture is a representative /v1/simulate response — channel
// utilizations with "a->b (kind)" names and a timing table.
func SimulateFixture() *server.SimulateResponse {
	t := report.New("AllReduce on dgx1: ccube, 16M", "metric", "value")
	channels := make([]server.ChannelUse, 0, 8)
	for i := 0; i < 8; i++ {
		channels = append(channels, server.ChannelUse{
			Channel:     fmt.Sprintf("gpu%d->gpu%d (nvlink)", i, (i+1)%8),
			Utilization: float64(8-i) / 9.0,
		})
	}
	t.AddRow("total", "1.844ms")
	t.AddRow("turnaround", "1.613ms")
	t.AddRow("bandwidth", "9.1GB/s")
	t.AddNote("in-order delivery: true")
	return &server.SimulateResponse{
		Topology:      "dgx1",
		Algorithm:     "ccube",
		Bytes:         16 << 20,
		Participants:  8,
		Chunks:        16,
		TotalNS:       1_844_214,
		Total:         "1.844ms",
		TurnaroundNS:  1_613_007,
		Turnaround:    "1.613ms",
		BandwidthGBps: 9.0972,
		InOrder:       true,
		Channels:      channels,
		Table:         t,
	}
}

// Engine runs the DES and serve-path micro-benchmarks and returns their
// results. Every bench carries an allocs/op budget (Budgets); CI's bench job
// fails via CheckBudgets if any regresses.
func Engine() []Result {
	var out []Result
	for _, bm := range benchmarks() {
		out = append(out, run(bm.name, bm.fn))
	}
	return out
}

// SteadyStateBudget is the default allocs/op ceiling: the engine and encoder
// steady states must not allocate at all.
const SteadyStateBudget = 0

// Budgets maps each benchmark to its allocs/op ceiling. Benches absent from
// the map get SteadyStateBudget (zero). GraphPipeline8x256 re-Adds 2048
// tasks per op through the variadic Add path; its small non-zero budget
// covers the handful of variadic dep slices the compiler heap-allocates, and
// pins that re-populating a Reset graph never scales allocations with task
// count again (the seed built the whole graph per op: 109 allocs, ~768KB).
var Budgets = map[string]int64{
	"GraphPipeline8x256": 9,
}

// CheckBudgets returns a description of every bench exceeding its allocs/op
// budget (empty when all pass).
func CheckBudgets(results []Result) []string {
	var over []string
	for _, r := range results {
		budget, ok := Budgets[r.Name]
		if !ok {
			budget = SteadyStateBudget
		}
		if r.AllocsPerOp > budget {
			over = append(over, fmt.Sprintf("%s: %d allocs/op > budget %d", r.Name, r.AllocsPerOp, budget))
		}
	}
	return over
}
