// Package bench runs the simulator's benchmarks in-process, so ccube-bench
// can record machine-readable performance numbers (wall time, allocations)
// next to the figures they time. The real-layer benches time the layers a
// served request pays for — schedule build, verification, synthesis,
// execution and a training iteration — on the shapes the package benches
// (BenchmarkExecute, BenchmarkBuild, BenchmarkCheck, BenchmarkSynthesize)
// already use; the
// rest time the Graph run path, a schedule-cache hit and the serve JSON
// encoders. The alloc budgets are enforced both here (CheckBudgets, run by
// ccube-bench and CI) and by the des/server packages' AllocsPerRun tests.
package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/report"
	"ccube/internal/schedcheck"
	"ccube/internal/server"
	"ccube/internal/synth"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// Samples is how many timed samples Run takes of every bench. Each sample
// times the same number of ops, calibrated to about sampleTime; a bench's
// ns/op is the median over its samples and its spread is their median
// absolute deviation, so one sample slowed by a noisy neighbour moves
// neither.
const Samples = 20

// sampleTime is the wall time one sample aims for.
const sampleTime = 100 * time.Millisecond

// Result is one bench outcome in BENCH_ccube.json form.
type Result struct {
	Name string `json:"name"`
	// NsPerOp is the median over the samples, MADNsPerOp the median
	// absolute deviation from it.
	NsPerOp      float64 `json:"ns_per_op"`
	MADNsPerOp   float64 `json:"mad_ns_per_op"`
	Samples      int     `json:"samples"`
	OpsPerSample int     `json:"ops_per_sample"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	// Gated marks the real-layer benches: each needs an explicit Budgets
	// entry and an entry in the committed baseline, and ccube-bench
	// compares its median with the baseline's.
	Gated bool `json:"gated,omitempty"`
}

// benchmark pairs a bench with the name it reports under, so the bench list
// and the budget table stay checkable against each other (bench_test.go
// fails if a bench is added without a budget decision). setup runs outside
// the timer and returns the op a sample times.
type benchmark struct {
	name  string
	gated bool
	setup func() (op func() error, err error)
}

// cluster64CCube is the simulate_scale shape: C-Cube on the 64-GPU cluster
// at 128 chunks.
func cluster64CCube() collective.Config {
	return collective.Config{
		Graph:     topology.Hierarchy(topology.DefaultHierarchyConfig(64)),
		Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20, Chunks: 128,
		AllowSharedChannels: true,
	}
}

// dgx1CCube is the paper's headline shape: the C-Cube tree on the DGX-1 at
// 16 MiB (cost-model chunk count).
func dgx1CCube() collective.Config {
	return collective.Config{
		Graph:     topology.DGX1(topology.DefaultDGX1Config()),
		Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 16 << 20,
	}
}

// executeBench times one DES run of a built, verified schedule: the work a
// schedule-cache hit leaves to ExecuteCtx. The schedule comes out of a
// private cache, so it is stamped and every run pays the topology staleness
// check a served execution pays.
func executeBench(cfg func() collective.Config) func() (func() error, error) {
	return func() (func() error, error) {
		s, err := collective.NewCache().Build(cfg())
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		return func() error {
			_, err := s.ExecuteCtx(ctx)
			return err
		}, nil
	}
}

// checkBench times one verification of a built schedule: the cold-path
// Check every full build pays. The dgx1 shape (~700 transfers) is the size
// plan_unique verifies six of per request, where per-call setup dominates.
func checkBench(cfg func() collective.Config) func() (func() error, error) {
	return func() (func() error, error) {
		s, err := collective.Build(cfg())
		if err != nil {
			return nil, err
		}
		p := s.Program()
		return func() error { return schedcheck.Check(p).Err() }, nil
	}
}

// synthSizes are the message sizes BenchmarkSynthesize cycles through.
var synthSizes = []int64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}

// benchmarks returns the suite. The gated ones are the real-layer benches.
func benchmarks() []benchmark {
	return []benchmark{
		{"Execute/cluster64-ccube-128chunks", true, executeBench(cluster64CCube)},
		{"Execute/dgx1-ccube-16MiB", true, executeBench(dgx1CCube)},
		{"Build/cluster64-ccube-128chunks", true, func() (func() error, error) {
			cfg := cluster64CCube()
			return func() error {
				_, err := collective.Build(cfg)
				return err
			}, nil
		}},
		{"Check/cluster64-ccube-128chunks", true, checkBench(cluster64CCube)},
		{"Check/dgx1-ccube-16MiB", true, checkBench(dgx1CCube)},
		{"Synthesize/dgx1", true, func() (func() error, error) {
			// One op is a cold compile (NoCache) at each of
			// BenchmarkSynthesize's sizes, so every op does the same work.
			g := topology.DGX1(topology.DefaultDGX1Config())
			ctx := context.Background()
			return func() error {
				for _, size := range synthSizes {
					if _, err := synth.Synthesize(ctx, g, size, synth.Options{NoCache: true}); err != nil {
						return err
					}
				}
				return nil
			}, nil
		}},
		{"Train/dgx1-resnet50-CC", true, func() (func() error, error) {
			// One ModeCC iteration of ResNet-50 at batch 64 on the DGX-1,
			// as train.BenchmarkExecute times it: the schedule is a cache
			// hit after the untimed first op, so an op is the standalone
			// collective run plus building and running the iteration
			// graph, the path /v1/train requests take.
			cfg := train.Config{Model: dnn.ResNet50(), Batch: 64,
				Graph: topology.DGX1(topology.DefaultDGX1Config()), Mode: train.ModeCC}
			ctx := context.Background()
			op := func() error {
				_, err := train.RunCtx(ctx, cfg)
				return err
			}
			return op, op()
		}},
		{"GraphPipeline8x256", false, func() (func() error, error) {
			// Steady-state graph reuse: the graph, its resources, and every
			// backing array are built once; each op Resets and re-Adds the
			// 8×256 pipeline and runs it through the production
			// Graph.RunCtx, so the per-op cost must be the task work, not
			// allocator traffic.
			const d, k = 8, 256
			g := des.NewGraph()
			links := make([]*des.Resource, d)
			for l := range links {
				links[l] = des.NewResource("link")
			}
			prev := make([]int, k)
			ctx := context.Background()
			return func() error {
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
				_, err := g.RunCtx(ctx)
				return err
			}, nil
		}},
		{"ScheduleCacheHit", false, func() (func() error, error) {
			// Warm-path lookup: the key must build and compare without
			// heap traffic, or the per-request fast path in ccube-serve
			// allocates on every plan/simulate call. Uses a private cache
			// so the shared DefaultCache counters stay untouched.
			c := collective.NewCache()
			cfg := dgx1CCube()
			if _, err := c.Build(cfg); err != nil {
				return nil, err
			}
			return func() error {
				_, err := c.Build(cfg)
				return err
			}, nil
		}},
		{"ServeEncodePlan", false, encodeBench(PlanFixture())},
		{"ServeEncodeSimulate", false, encodeBench(SimulateFixture())},
	}
}

// encodeBench times re-encoding r into a warm buffer.
func encodeBench(r interface{ AppendJSON([]byte) []byte }) func() (func() error, error) {
	return func() (func() error, error) {
		buf := r.AppendJSON(nil)
		return func() error {
			buf = r.AppendJSON(buf[:0])
			sinkLen = len(buf)
			return nil
		}, nil
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

// Run times every bench over Samples samples and returns their results.
// The samples are taken round-robin across the benches, so a stretch of
// host noise lands on one sample of each bench instead of on every sample
// of one. Every bench carries an allocs/op budget (Budgets); CI's bench job
// fails via CheckBudgets if any regresses.
func Run() ([]Result, error) {
	bms := benchmarks()
	ops := make([]func() error, len(bms))
	ns := make([][]float64, len(bms)) // ns/op of each sample
	out := make([]Result, len(bms))
	for i, bm := range bms {
		op, err := bm.setup()
		n := 0
		if err == nil {
			n, err = calibrate(op)
		}
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", bm.name, err)
		}
		ops[i] = op
		out[i] = Result{Name: bm.name, Samples: Samples, OpsPerSample: n, Gated: bm.gated}
	}
	for i, op := range ops {
		if err := countAllocs(op, &out[i]); err != nil {
			return nil, fmt.Errorf("bench %s: %w", bms[i].name, err)
		}
	}
	for range Samples {
		for i, op := range ops {
			// Each sample starts from a collected heap, and one untimed op
			// refills the pooled scratch the other benches' collections
			// drained, so every sample times warm ops.
			runtime.GC()
			err := op()
			start := time.Now()
			for j := 0; err == nil && j < out[i].OpsPerSample; j++ {
				err = op()
			}
			elapsed := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench %s: %w", bms[i].name, err)
			}
			ns[i] = append(ns[i], float64(elapsed.Nanoseconds())/float64(out[i].OpsPerSample))
		}
	}
	for i := range out {
		r := &out[i]
		r.NsPerOp = median(ns[i])
		for j, v := range ns[i] {
			ns[i][j] = math.Abs(v - r.NsPerOp)
		}
		r.MADNsPerOp = median(ns[i])
	}
	return out, nil
}

// allocOps is how many warm ops countAllocs counts over.
const allocOps = 5

// countAllocs sets r's allocs/op and B/op from allocOps warm ops run on one
// P with the collector paused. A collection empties every sync.Pool, and a
// goroutine that moves to another P misses the pooled object it put back
// on the first, so counting across timed samples would charge an op for
// however many collections and migrations happened to land in its sample.
// Pinned and paused, as testing.AllocsPerRun pins, the count is the op's
// own and the same on every run, which is what lets Budgets hold it
// exactly.
func countAllocs(op func() error, r *Result) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	err := op()
	runtime.ReadMemStats(&before)
	for j := 0; err == nil && j < allocOps; j++ {
		err = op()
	}
	runtime.ReadMemStats(&after)
	r.AllocsPerOp = int64(after.Mallocs-before.Mallocs) / allocOps
	r.BytesPerOp = int64(after.TotalAlloc-before.TotalAlloc) / allocOps
	return err
}

// calibrate returns how many ops fill about sampleTime, timing runs of
// doubling length until one is long enough to scale from.
func calibrate(op func() error) (int, error) {
	for n := 1; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, err
			}
		}
		if d := time.Since(start); d >= sampleTime/8 {
			return max(1, int(float64(n)*float64(sampleTime)/float64(d))), nil
		}
	}
}

// median returns the median of v, reordering v.
func median(v []float64) float64 {
	slices.Sort(v)
	m := len(v) / 2
	if len(v)%2 == 0 {
		return (v[m-1] + v[m]) / 2
	}
	return v[m]
}

// SteadyStateBudget is the default allocs/op ceiling: the Graph run path,
// the cache hit and the encoders must not allocate at all.
const SteadyStateBudget = 0

// Budgets maps each benchmark to its allocs/op ceiling. Benches absent from
// the map get SteadyStateBudget (zero). The real-layer benches build,
// verify, synthesize or return a result per op, so each is held at exactly
// the allocs/op it counts under ccube-bench, with metrics enabled; the
// count is the same on every run (countAllocs), so any new allocation on
// these paths fails the budget.
var Budgets = map[string]int64{
	"Execute/cluster64-ccube-128chunks": 6,
	"Execute/dgx1-ccube-16MiB":          6,
	"Build/cluster64-ccube-128chunks":   575,
	"Check/cluster64-ccube-128chunks":   2,
	"Check/dgx1-ccube-16MiB":            2,
	"Synthesize/dgx1":                   955,
	"Train/dgx1-resnet50-CC":            2730,
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
