// Command ccube-bench regenerates the paper's evaluation figures and
// tables. Each figure is produced by the corresponding experiment in
// internal/experiments and printed as an aligned text table annotated with
// the paper's headline numbers.
//
// Usage:
//
//	ccube-bench                  # regenerate everything
//	ccube-bench -fig 12a         # one figure
//	ccube-bench -fig 14a -max-nodes 1024
//	ccube-bench -list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ccube/internal/bench"
	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/experiments"
	"ccube/internal/lint"
	"ccube/internal/loadgen"
	"ccube/internal/metrics"
	"ccube/internal/report"
	"ccube/internal/server"
)

// benchReport is the BENCH_ccube.json payload: the bench results (median
// and spread over repeated samples), per-experiment wall time,
// schedule-cache traffic, and — when fig13 is among the runs — the
// serial/uncached reference timing that the cache+parallel speedup is
// measured against.
type benchReport struct {
	NumCPU         int                      `json:"num_cpu"`
	GoMaxProcs     int                      `json:"gomaxprocs"`
	Parallelism    int                      `json:"parallelism"`
	Benches        []bench.Result           `json:"benches"`
	Experiments    []expTiming              `json:"experiments"`
	CacheHits      uint64                   `json:"schedule_cache_hits"`
	CacheMisses    uint64                   `json:"schedule_cache_misses"`
	CacheEvictions uint64                   `json:"schedule_cache_evictions"`
	CacheHitRate   float64                  `json:"schedule_cache_hit_rate"`
	Fig13Ref       *fig13Ref                `json:"fig13_reference,omitempty"`
	Churn          []churnFloor             `json:"churn_floor,omitempty"`
	Synth          *synthReport             `json:"synth,omitempty"`
	Baseline       *baselineReport          `json:"baseline,omitempty"`
	ServerSmoke    *loadgen.Report          `json:"server_smoke,omitempty"`
	Lint           *lintTiming              `json:"lint,omitempty"`
	Metrics        []metrics.FamilySnapshot `json:"metrics,omitempty"`
}

// churnFloor records one cell of the scale-out churn gate: at 64 nodes the
// adapt-in-place throughput floor must dominate the relaunch floor for every
// algorithm — adaptation keeps the executed prefix, so a lower floor would
// mean the patch-and-resume path costs more than it saves.
type churnFloor struct {
	Nodes            int     `json:"nodes"`
	Algorithm        string  `json:"algorithm"`
	FailLinks        int     `json:"fail_links"`
	RepairLatencyUS  float64 `json:"repair_latency_us"`
	RelaunchFloorBps float64 `json:"relaunch_floor_bytes_per_s"`
	AdaptFloorBps    float64 `json:"adapt_floor_bytes_per_s"`
	// FloorGain is adapt/relaunch; the gate requires >= 1.
	FloorGain float64 `json:"adapt_over_relaunch"`
	// AdaptRecoveredBW is the adapt floor as a fraction of the healthy
	// fault-free baseline throughput.
	AdaptRecoveredBW float64 `json:"adapt_recovered_bw"`
	Adapted          int     `json:"adapted"`
}

// synthReport records the schedule-synthesis gate: the full SynthSweep grid
// (per-topology cold compile time, winning plan shape, makespan vs the best
// built-in) plus the total compile wall time. The gate is that on the fig13
// evaluation platforms synthesis never loses to the built-in menu. The
// total is one unsampled pass of about 20 ms, too short to hold against a
// baseline, so it is recorded for the trend only; compile time is compared
// with the baseline through the sampled Synthesize/dgx1 bench.
type synthReport struct {
	Cells             []experiments.SynthCell `json:"cells"`
	BuildSecondsTotal float64                 `json:"build_seconds_total"`
}

type expTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// baselineReport compares every gated bench's median with the one in the
// committed BENCH_ccube.json, read before being overwritten. A gated bench
// the baseline has no entry for fails the run. A median slower than the
// baseline's by more than the tolerance is listed in Regressed and printed
// as a warning but does not fail the run: on a shared VM every median
// drifts by 10-30% for minutes at a time, so a wall-clock bound trips on
// unchanged code. The exact gates are the alloc budgets
// (bench.CheckBudgets).
type baselineReport struct {
	Path      string          `json:"path"`
	Tolerance float64         `json:"tolerance"`
	Benches   []baselineDelta `json:"benches"`
	Regressed []string        `json:"regressed,omitempty"`
}

// baselineDelta is one gated bench against its committed median.
type baselineDelta struct {
	Bench           string  `json:"bench"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	CurrentNsPerOp  float64 `json:"current_ns_per_op"`
	// Delta is (current-baseline)/baseline; negative means faster.
	Delta float64 `json:"delta"`
}

// checkBaseline compares the median of every gated bench in results against
// the previously committed report at path and lists those slower than the
// baseline's by more than tol. A missing file is not an error (first run);
// a gated bench the file has no entry for is, because a renamed or dropped
// bench would otherwise drop out of the comparison without a word.
func checkBaseline(path string, results []bench.Result, tol float64) (*baselineReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var prev struct {
		Benches []bench.Result `json:"benches"`
	}
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	base := map[string]float64{}
	for _, r := range prev.Benches {
		base[r.Name] = r.NsPerOp
	}
	br := &baselineReport{Path: path, Tolerance: tol}
	var errs []error
	for _, r := range results {
		if !r.Gated {
			continue
		}
		b := base[r.Name]
		if b <= 0 {
			errs = append(errs, fmt.Errorf("gated bench %s has no entry in baseline %s; regenerate it with -baseline none",
				r.Name, path))
			continue
		}
		d := baselineDelta{Bench: r.Name, BaselineNsPerOp: b, CurrentNsPerOp: r.NsPerOp, Delta: (r.NsPerOp - b) / b}
		br.Benches = append(br.Benches, d)
		if d.Delta > tol {
			br.Regressed = append(br.Regressed, r.Name)
		}
	}
	return br, errors.Join(errs...)
}

// lintTiming tracks analyzer cost over time: a cold full-module ccube-lint
// run (parse + type-check + all analyzers), so BENCH_ccube.json shows when
// a new rule or a package growth spurt pushes lint past its 5 s budget.
type lintTiming struct {
	Seconds     float64 `json:"seconds"`
	Diagnostics int     `json:"diagnostics"`
	Suppressed  int     `json:"suppressed"`
	Packages    int     `json:"packages"`
	Files       int     `json:"files"`
}

type fig13Ref struct {
	SerialUncachedSeconds float64 `json:"serial_uncached_seconds"`
	Seconds               float64 `json:"seconds"`
	Speedup               float64 `json:"speedup"`
}

// writeTable saves one table via the given writer method, creating the
// directory if needed.
func writeTable(dir, id string, idx, total int, ext string, t *report.Table,
	write func(*report.Table, io.Writer) error) error {
	name := dir + "/" + id
	if total > 1 {
		name = fmt.Sprintf("%s-%d", name, idx+1)
	}
	path := name + ext
	if err := os.MkdirAll(pathDir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(t, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func pathDir(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}

// main defers profile teardown inside run so error exits still flush the
// pprof files.
func main() { os.Exit(run()) }

func run() int {
	fig := flag.String("fig", "all", "figure to regenerate (e.g. 1, 3, 12a, 14b) or 'all'")
	maxNodes := flag.Int("max-nodes", experiments.Fig14MaxNodes,
		"largest node count for the scale-out sweep (paper: 1024)")
	list := flag.Bool("list", false, "list available experiments and exit")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	mdDir := flag.String("md", "", "also write each table as Markdown into this directory")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker count for the grid sweeps (1 = serial reference path)")
	benchJSON := flag.String("benchjson", "",
		"write machine-readable benchmark results (bench medians and allocs, wall times) to this JSON file")
	baseline := flag.String("baseline", "",
		"baseline BENCH JSON to compare the real-layer benches with (default: the -benchjson path, read before overwrite); 'none' disables")
	baselineTol := flag.Float64("baseline-tolerance", 0.10,
		"warn if any gated bench's median is slower than the baseline's by more than this fraction")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve GET /metrics and /healthz on this address while running (e.g. :9090)")
	flag.Parse()

	if *metricsAddr != "" {
		metrics.Default.Enable()
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer ln.Close()
		// Reuses the server package's ops endpoints; no second handler
		// implementation.
		//lint:ignore goroutine-leak process-lifetime ops server; the deferred ln.Close unblocks Serve at exit
		go http.Serve(ln, server.OpsHandler())
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", ln.Addr())
	}

	experiments.Fig14MaxNodes = *maxNodes
	experiments.Parallelism = *parallel

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // collect dead objects so the profile shows live bytes
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Description)
		}
		return 0
	}

	var todo []experiments.Experiment
	if *fig == "all" {
		todo = experiments.All()
	} else {
		e, err := experiments.ByID(*fig)
		if err != nil {
			e, err = experiments.ByID("fig" + *fig)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			fmt.Fprintln(os.Stderr, "use -list to see available experiments")
			return 1
		}
		todo = []experiments.Experiment{e}
	}

	rep := benchReport{
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallelism: *parallel,
	}
	if *benchJSON != "" {
		// Collect the runtime metrics layer alongside the wall times so the
		// JSON records utilization/overlap/queue behavior, not just totals.
		metrics.Default.Enable()
		fmt.Printf("running benchmarks (median and MAD over %d samples)...\n", bench.Samples)
		results, err := bench.Run()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		rep.Benches = results
		for _, r := range results {
			fmt.Printf("  %-34s %12.0f ns/op ±%5.1f%% %9d B/op %6d allocs/op\n",
				r.Name, r.NsPerOp, 100*r.MADNsPerOp/r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
		fmt.Println()
		if over := bench.CheckBudgets(results); len(over) > 0 {
			fmt.Fprintf(os.Stderr, "alloc budget exceeded: %s\n", strings.Join(over, ", "))
			return 1
		}
		if *baseline != "none" {
			basePath := *baseline
			if basePath == "" {
				basePath = *benchJSON
			}
			br, err := checkBaseline(basePath, results, *baselineTol)
			rep.Baseline = br
			if br != nil {
				for _, d := range br.Benches {
					fmt.Printf("[baseline %s: %s %.0f -> %.0f ns/op (%+.1f%%, tolerance %.0f%%)]\n",
						br.Path, d.Bench, d.BaselineNsPerOp, d.CurrentNsPerOp, d.Delta*100, br.Tolerance*100)
				}
				fmt.Println()
				if len(br.Regressed) > 0 {
					fmt.Fprintf(os.Stderr, "warning: median over tolerance vs %s (wall clock, not gated): %s\n",
						br.Path, strings.Join(br.Regressed, ", "))
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
	}

	for _, e := range todo {
		start := time.Now()
		tables, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			return 1
		}
		for i, t := range tables {
			fmt.Println(t.Render())
			if *csvDir != "" {
				if err := writeTable(*csvDir, e.ID, i, len(tables), ".csv", t,
					(*report.Table).WriteCSV); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
					return 1
				}
			}
			if *mdDir != "" {
				if err := writeTable(*mdDir, e.ID, i, len(tables), ".md", t,
					(*report.Table).WriteMarkdown); err != nil {
					fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
					return 1
				}
			}
		}
		elapsed := time.Since(start).Seconds()
		rep.Experiments = append(rep.Experiments, expTiming{ID: e.ID, Seconds: elapsed})
		fmt.Printf("[%s regenerated in %.1fs]\n\n", e.ID, elapsed)
	}

	if *benchJSON != "" {
		rep.CacheHits, rep.CacheMisses = collective.DefaultCache.Stats()
		rep.CacheEvictions = collective.DefaultCache.Evictions()
		if lookups := rep.CacheHits + rep.CacheMisses; lookups > 0 {
			rep.CacheHitRate = float64(rep.CacheHits) / float64(lookups)
		}
		for _, t := range rep.Experiments {
			if t.ID != "fig13" {
				continue
			}
			// Reference: the pre-cache, single-worker behavior — memoization
			// off, serial sweep. The recorded speedup is what the cache and
			// the parallel executor buy together on identical work.
			fmt.Println("timing fig13 serial/uncached reference...")
			collective.DefaultCache.SetEnabled(false)
			experiments.Parallelism = 1
			start := time.Now()
			if _, err := experiments.Fig13Sweep(); err != nil {
				fmt.Fprintf(os.Stderr, "fig13 reference: %v\n", err)
				return 1
			}
			ref := time.Since(start).Seconds()
			collective.DefaultCache.SetEnabled(true)
			experiments.Parallelism = *parallel
			rep.Fig13Ref = &fig13Ref{
				SerialUncachedSeconds: ref,
				Seconds:               t.Seconds,
				Speedup:               ref / t.Seconds,
			}
			fmt.Printf("[fig13: %.1fs serial/uncached vs %.1fs cached/parallel = %.1fx]\n\n",
				ref, t.Seconds, rep.Fig13Ref.Speedup)
		}
		smoke, err := serverSmoke()
		if err != nil {
			fmt.Fprintf(os.Stderr, "server smoke: %v\n", err)
			return 1
		}
		rep.ServerSmoke = smoke
		fmt.Printf("[server smoke: %d requests, %.0f req/s, p99 %.2fms, p99.9 %.2fms, %d failed, %d gc cycles (%.3fms pause, %.2fMB allocated)]\n\n",
			smoke.Requests, smoke.Throughput, smoke.P99MS, smoke.P999MS,
			smoke.Failed, smoke.GCCycles, smoke.GCPauseMS, smoke.TotalAllocMB)

		churn, err := churnGate()
		if err != nil {
			fmt.Fprintf(os.Stderr, "churn floor gate: %v\n", err)
			return 1
		}
		rep.Churn = churn
		for _, c := range churn {
			fmt.Printf("[churn floor P=%d %s fails=%d: adapt %.2fGB/s vs relaunch %.2fGB/s (%.2fx), recovered %.0f%%]\n",
				c.Nodes, c.Algorithm, c.FailLinks, c.AdaptFloorBps/1e9, c.RelaunchFloorBps/1e9,
				c.FloorGain, c.AdaptRecoveredBW*100)
		}
		fmt.Println()

		sg, err := synthGate()
		rep.Synth = sg
		if err != nil {
			fmt.Fprintf(os.Stderr, "synth gate: %v\n", err)
			return 1
		}
		fmt.Printf("[synth: %d cells compiled in %.2fs total", len(sg.Cells), sg.BuildSecondsTotal)
		fmt.Printf(", no fig13 losses]\n\n")

		if lr, err := lintRun(); err != nil {
			// Not reachable from this cwd (no go.mod): skip the measurement
			// rather than fail the figures.
			fmt.Fprintf(os.Stderr, "lint timing skipped: %v\n", err)
		} else {
			rep.Lint = lr
			fmt.Printf("[lint: %d pkgs, %d files in %.2fs — %d diagnostics, %d suppressed]\n\n",
				lr.Packages, lr.Files, lr.Seconds, lr.Diagnostics, lr.Suppressed)
		}

		rep.Metrics = metrics.Default.Snapshot()
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := os.WriteFile(*benchJSON, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("benchmark results written to %s\n", *benchJSON)
	}
	return 0
}

// churnGate runs the scale-out churn sweep's acceptance check: 64 nodes,
// every algorithm, 1 and 2 link deaths per epoch drawn from the links the
// schedule rides. For each cell both fault-response modes run under
// identical seeded churn, and the adapt-in-place throughput floor must be
// at least the relaunch floor — otherwise the gate fails the bench.
func churnGate() ([]churnFloor, error) {
	const nodes = 64
	const latency = 50 * des.Microsecond
	var out []churnFloor
	for _, alg := range []collective.Algorithm{
		collective.AlgRing,
		collective.AlgDoubleTree,
		collective.AlgDoubleTreeOverlap,
	} {
		for _, fails := range []int{1, 2} {
			fl, err := experiments.RunChurnPoint(nodes, alg, fails, latency)
			if err != nil {
				return nil, err
			}
			c := churnFloor{
				Nodes:            nodes,
				Algorithm:        alg.String(),
				FailLinks:        fails,
				RepairLatencyUS:  latency.Micros(),
				RelaunchFloorBps: fl.Relaunch.FloorThroughput,
				AdaptFloorBps:    fl.Adapt.FloorThroughput,
				AdaptRecoveredBW: fl.Adapt.RecoveredBandwidth(),
				Adapted:          fl.Adapt.Adapted,
			}
			if fl.Relaunch.FloorThroughput > 0 {
				c.FloorGain = fl.Adapt.FloorThroughput / fl.Relaunch.FloorThroughput
			}
			if fl.Adapt.FloorThroughput < fl.Relaunch.FloorThroughput {
				return nil, fmt.Errorf("P=%d %s fails=%d: adapt floor %.3gB/s below relaunch floor %.3gB/s",
					nodes, alg, fails, fl.Adapt.FloorThroughput, fl.Relaunch.FloorThroughput)
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// synthGate replays the ext-synth sweep with the schedule cache bypassed and
// enforces the synthesis acceptance contract: on every fig13 evaluation
// platform cell the synthesized schedule must not lose to the best built-in
// (ratio > 1).
func synthGate() (*synthReport, error) {
	cells, err := experiments.SynthSweep()
	if err != nil {
		return nil, err
	}
	sr := &synthReport{Cells: cells}
	for _, c := range cells {
		sr.BuildSecondsTotal += c.BuildSeconds
		if c.Fig13 && c.BuiltinAlg != "" && c.Ratio > 1 {
			return sr, fmt.Errorf("synth loses to %s on fig13 cell %s/%s (%.3fx)",
				c.BuiltinAlg, c.Topology, report.Bytes(c.Bytes), c.Ratio)
		}
	}
	return sr, nil
}

// serverSmoke boots an in-process ccube-serve instance and drives it with
// 24 warmup and 1000 measured requests over three fixed bodies, recording
// service throughput alongside the bench numbers. After warmup every
// request is a response-cache hit, so it measures HTTP plus response-cache
// replay, not schedule compute. Any response other than 200 or a
// deliberate 429 fails the run.
func serverSmoke() (*loadgen.Report, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Workers: 4})
	hs := &http.Server{Handler: srv.Handler()}
	//lint:ignore goroutine-leak benchmark-scoped server; the deferred hs.Close unblocks Serve
	go hs.Serve(ln)
	defer hs.Close()

	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     "http://" + ln.Addr().String(),
		Concurrency: 4,
		// 1000 measured requests: the smallest count where nearest-rank p99.9
		// (rank ⌈0.999·n⌉) is distinct from the max, so the recorded tail is
		// an actual percentile and the GC deltas cover a steady window rather
		// than a burst. The warm response cache keeps this cheap.
		Requests: 1000,
		// Let every target build its schedule and fill the response cache
		// before measuring, so the percentiles reflect steady-state service
		// latency rather than first-request compilation.
		Warmup: 24,
		Targets: []loadgen.Target{
			{Name: "plan", Path: "/v1/plan", Body: `{"topology":"dgx1","bytes":"16M"}`},
			{Name: "simulate", Path: "/v1/simulate", Body: `{"topology":"dgx1","algorithm":"ccube","bytes":"16M"}`},
			{Name: "train", Path: "/v1/train", Body: `{"topology":"dgx1","model":"zfnet","batch":16,"mode":"CC"}`},
		},
	})
	if err != nil {
		return nil, err
	}
	if rep.Failed > 0 {
		return nil, fmt.Errorf("%d requests failed (by status: %v)", rep.Failed, rep.ByStatus)
	}
	return rep, nil
}

// lintRun times a cold full-module ccube-lint pass — one shared parse and
// type-check, all registered analyzers — from the working directory (make
// bench and CI invoke this from the repo root, where go.mod lives).
func lintRun() (*lintTiming, error) {
	start := time.Now()
	loader, err := lint.NewLoader(".")
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		return nil, err
	}
	res := lint.Run(pkgs, nil)
	return &lintTiming{
		Seconds:     time.Since(start).Seconds(),
		Diagnostics: len(res.Diagnostics),
		Suppressed:  res.Suppressed,
		Packages:    res.NumPackages,
		Files:       res.NumFiles,
	}, nil
}
