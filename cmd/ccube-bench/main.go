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
	"ccube/internal/collective/store"
	"ccube/internal/des"
	"ccube/internal/experiments"
	"ccube/internal/lint"
	"ccube/internal/loadgen"
	"ccube/internal/metrics"
	"ccube/internal/report"
	"ccube/internal/schedcheck"
	"ccube/internal/server"
	"ccube/internal/topology"
)

// benchReport is the BENCH_ccube.json payload: the engine micro-benchmark
// results, per-experiment wall time, schedule-cache traffic, and — when
// fig13 is among the runs — the serial/uncached reference timing that the
// cache+parallel speedup is measured against.
type benchReport struct {
	NumCPU         int                      `json:"num_cpu"`
	GoMaxProcs     int                      `json:"gomaxprocs"`
	Parallelism    int                      `json:"parallelism"`
	Engine         []bench.Result           `json:"engine"`
	Experiments    []expTiming              `json:"experiments"`
	CacheHits      uint64                   `json:"schedule_cache_hits"`
	CacheMisses    uint64                   `json:"schedule_cache_misses"`
	CacheEvictions uint64                   `json:"schedule_cache_evictions"`
	CacheHitRate   float64                  `json:"schedule_cache_hit_rate"`
	Fig13Ref       *fig13Ref                `json:"fig13_reference,omitempty"`
	Churn          []churnFloor             `json:"churn_floor,omitempty"`
	Synth          *synthReport             `json:"synth,omitempty"`
	Baseline       *baselineReport          `json:"baseline,omitempty"`
	Store          *storeReport             `json:"schedule_store,omitempty"`
	ServerSmoke    *loadgen.Report          `json:"server_smoke,omitempty"`
	Lint           *lintTiming              `json:"lint,omitempty"`
	Metrics        []metrics.FamilySnapshot `json:"metrics,omitempty"`
}

// storeReport records the warm-start behavior of the on-disk schedule
// store: the fig13 sweep runs twice against one directory — first with the
// store empty (cold), then with the in-memory cache dropped so every
// schedule must be loaded and re-verified from disk (warm) — followed by a
// corruption probe that damages one entry on disk and confirms it is
// detected, counted, deleted, and rebuilt without failing the run.
type storeReport struct {
	Dir            string  `json:"dir"`
	Entries        int     `json:"entries"`
	ColdSeconds    float64 `json:"fig13_cold_seconds"`
	WarmSeconds    float64 `json:"fig13_warm_seconds"`
	WarmSpeedup    float64 `json:"fig13_warm_speedup"`
	ColdMisses     uint64  `json:"cold_misses"`
	ColdWrites     uint64  `json:"cold_writes"`
	WarmHits       uint64  `json:"warm_hits"`
	WarmMisses     uint64  `json:"warm_misses"`
	WarmHitRate    float64 `json:"warm_hit_rate"`
	CorruptEntries uint64  `json:"corrupt_entries"`
	ProbeRestored  bool    `json:"probe_restored"`
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
// built-in) plus the total compile wall time that is held against the
// committed baseline. Two gates run over it: on the fig13 evaluation
// platforms synthesis must never lose to the built-in menu, and the total
// build time must not regress beyond the baseline tolerance.
type synthReport struct {
	Cells             []experiments.SynthCell `json:"cells"`
	BuildSecondsTotal float64                 `json:"build_seconds_total"`
	// BaselineSeconds/Delta mirror baselineReport; zero when the committed
	// report predates the synth block.
	BaselineSeconds float64 `json:"baseline_build_seconds,omitempty"`
	Delta           float64 `json:"build_delta,omitempty"`
}

type expTiming struct {
	ID      string  `json:"id"`
	Seconds float64 `json:"seconds"`
}

// baselineReport records the regression gate: the committed BENCH_ccube.json
// is read before being overwritten and the headline engine bench must not be
// slower than it by more than the tolerance. Allocation budgets are exact
// (bench.CheckBudgets); wall time gets the tolerance because shared CI
// machines are noisy.
type baselineReport struct {
	Path            string  `json:"path"`
	Bench           string  `json:"bench"`
	BaselineNsPerOp float64 `json:"baseline_ns_per_op"`
	CurrentNsPerOp  float64 `json:"current_ns_per_op"`
	// Delta is (current-baseline)/baseline; negative means faster.
	Delta     float64 `json:"delta"`
	Tolerance float64 `json:"tolerance"`
}

// baselineBench is the headline timing gate: the engine schedule/run loop is
// the inner loop of every figure, so it is the one bench whose wall time is
// held against the committed baseline.
const baselineBench = "EngineScheduleRun1024"

// checkBaseline compares the freshly measured engine results against the
// previously committed report at path. A missing or pre-gate baseline file
// is not an error (first run); a regression beyond tol is.
func checkBaseline(path string, results []bench.Result, tol float64) (*baselineReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var prev struct {
		Engine []bench.Result `json:"engine"`
	}
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	var base, cur *bench.Result
	for i := range prev.Engine {
		if prev.Engine[i].Name == baselineBench {
			base = &prev.Engine[i]
		}
	}
	for i := range results {
		if results[i].Name == baselineBench {
			cur = &results[i]
		}
	}
	if base == nil || cur == nil || base.NsPerOp <= 0 {
		return nil, nil
	}
	br := &baselineReport{
		Path:            path,
		Bench:           baselineBench,
		BaselineNsPerOp: base.NsPerOp,
		CurrentNsPerOp:  cur.NsPerOp,
		Delta:           (cur.NsPerOp - base.NsPerOp) / base.NsPerOp,
		Tolerance:       tol,
	}
	if br.Delta > tol {
		return br, fmt.Errorf("%s regressed %.1f%% vs %s (%.0f -> %.0f ns/op, tolerance %.0f%%)",
			baselineBench, br.Delta*100, path, base.NsPerOp, cur.NsPerOp, tol*100)
	}
	return br, nil
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
	verify := flag.Bool("verify", false,
		"statically verify the whole algorithm zoo with schedcheck before running experiments")
	parallel := flag.Int("parallel", runtime.NumCPU(),
		"worker count for the grid sweeps (1 = serial reference path)")
	benchJSON := flag.String("benchjson", "",
		"write machine-readable benchmark results (engine allocs, wall times) to this JSON file")
	baseline := flag.String("baseline", "",
		"baseline BENCH JSON for the regression gate (default: the -benchjson path, read before overwrite); 'none' disables")
	baselineTol := flag.Float64("baseline-tolerance", 0.10,
		"fail if the headline engine bench is slower than the baseline by more than this fraction")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve GET /metrics and /healthz on this address while running (e.g. :9090)")
	storeDir := flag.String("store", "",
		"on-disk schedule store directory; with -benchjson the directory is cleared and fig13 is timed cold vs warm against it, plus a corruption probe")
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

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		collective.DefaultCache.SetStore(st)
		fmt.Fprintf(os.Stderr, "schedule store %s (%d entries)\n", st.Dir(), st.Len())
	}

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

	if *verify {
		if !verifyZoo(os.Stdout) {
			return 1
		}
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
		fmt.Println("running engine micro-benchmarks...")
		rep.Engine = bench.Engine()
		for _, r := range rep.Engine {
			fmt.Printf("  %-28s %12.0f ns/op %6d B/op %4d allocs/op\n",
				r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		}
		fmt.Println()
		if over := bench.CheckBudgets(rep.Engine); len(over) > 0 {
			fmt.Fprintf(os.Stderr, "alloc budget exceeded: %s\n", strings.Join(over, ", "))
			return 1
		}
		if *baseline != "none" {
			basePath := *baseline
			if basePath == "" {
				basePath = *benchJSON
			}
			br, err := checkBaseline(basePath, rep.Engine, *baselineTol)
			rep.Baseline = br
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if br != nil {
				fmt.Printf("[baseline %s: %s %.0f -> %.0f ns/op (%+.1f%%, tolerance %.0f%%)]\n\n",
					br.Path, br.Bench, br.BaselineNsPerOp, br.CurrentNsPerOp, br.Delta*100, br.Tolerance*100)
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
		if st != nil {
			sr, err := measureStore(st)
			if err != nil {
				fmt.Fprintf(os.Stderr, "schedule store: %v\n", err)
				return 1
			}
			rep.Store = sr
			fmt.Printf("[store: fig13 %.2fs cold vs %.2fs warm (%.1fx), warm hit rate %.2f, corruption probe: %d corrupt, restored=%v]\n\n",
				sr.ColdSeconds, sr.WarmSeconds, sr.WarmSpeedup, sr.WarmHitRate, sr.CorruptEntries, sr.ProbeRestored)
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

		synthBase := ""
		if *baseline != "none" {
			if synthBase = *baseline; synthBase == "" {
				synthBase = *benchJSON
			}
		}
		sg, err := synthGate(synthBase, *baselineTol)
		rep.Synth = sg
		if err != nil {
			fmt.Fprintf(os.Stderr, "synth gate: %v\n", err)
			return 1
		}
		fmt.Printf("[synth: %d cells compiled in %.2fs total", len(sg.Cells), sg.BuildSecondsTotal)
		if sg.BaselineSeconds > 0 {
			fmt.Printf(" (%+.1f%% vs baseline, tolerance %.0f%%)", sg.Delta*100, *baselineTol*100)
		}
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

// measureStore times the fig13 sweep twice against one store directory.
// Cold: both cache levels emptied, so every schedule is built, verified,
// and written through. Warm: only the in-memory level is dropped —
// equivalent to a process restart — so every schedule comes off disk and
// through the verify-on-load path. A corruption probe then truncates one
// entry's file and rebuilds it, confirming damage is detected, counted,
// deleted, and repaired by write-through without failing the run.
func measureStore(st *store.Store) (*storeReport, error) {
	collective.DefaultCache.Clear()
	if err := st.Clear(); err != nil {
		return nil, err
	}
	st.ResetStats()
	start := time.Now()
	if _, err := experiments.Fig13Sweep(); err != nil {
		return nil, fmt.Errorf("cold fig13: %w", err)
	}
	cold := time.Since(start).Seconds()
	coldStats := st.Stats()

	collective.DefaultCache.Clear()
	st.ResetStats()
	start = time.Now()
	if _, err := experiments.Fig13Sweep(); err != nil {
		return nil, fmt.Errorf("warm fig13: %w", err)
	}
	warm := time.Since(start).Seconds()
	warmStats := st.Stats()

	sr := &storeReport{
		Dir:         st.Dir(),
		Entries:     st.Len(),
		ColdSeconds: cold,
		WarmSeconds: warm,
		ColdMisses:  coldStats.Misses,
		ColdWrites:  coldStats.Writes,
		WarmHits:    warmStats.Hits,
		WarmMisses:  warmStats.Misses,
		WarmHitRate: warmStats.HitRate(),
	}
	if warm > 0 {
		sr.WarmSpeedup = cold / warm
	}

	// The probe uses a chunk count the fig13 sweep never asks for, so its
	// entry is distinct from the sweep's and truncating it cannot disturb
	// the warm-start numbers recorded above.
	probe := collective.Config{
		Graph:     topology.DGX1(topology.DefaultDGX1Config()),
		Algorithm: collective.AlgDoubleTreeOverlap,
		Bytes:     48 << 20,
		Chunks:    13,
	}
	if _, err := collective.BuildCached(probe); err != nil {
		return nil, fmt.Errorf("corruption probe build: %w", err)
	}
	key, ok := collective.StoreKey(probe)
	if !ok {
		return nil, fmt.Errorf("corruption probe: config has no store key")
	}
	path := st.EntryPath(key)
	if err := os.Truncate(path, 3); err != nil {
		return nil, fmt.Errorf("corruption probe: %w", err)
	}
	collective.DefaultCache.Clear()
	st.ResetStats()
	if _, err := collective.BuildCached(probe); err != nil {
		return nil, fmt.Errorf("corruption probe rebuild: %w", err)
	}
	ps := st.Stats()
	sr.CorruptEntries = ps.Corrupt
	if ps.Corrupt != 1 || ps.Hits != 0 {
		return nil, fmt.Errorf("corruption probe: truncated entry not detected (stats %+v)", ps)
	}
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("corruption probe: entry not rewritten: %w", err)
	}
	sr.ProbeRestored = true
	sr.Entries = st.Len()
	return sr, nil
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
// (ratio > 1), and the total cold compile time must stay within tol of the
// committed baseline. A baseline without a synth block (pre-gate report) or
// a missing file passes, mirroring checkBaseline.
func synthGate(baselinePath string, tol float64) (*synthReport, error) {
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
	if baselinePath == "" {
		return sr, nil
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		if os.IsNotExist(err) {
			return sr, nil
		}
		return nil, err
	}
	var prev struct {
		Synth *synthReport `json:"synth"`
	}
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", baselinePath, err)
	}
	if prev.Synth == nil || prev.Synth.BuildSecondsTotal <= 0 {
		return sr, nil
	}
	sr.BaselineSeconds = prev.Synth.BuildSecondsTotal
	sr.Delta = (sr.BuildSecondsTotal - sr.BaselineSeconds) / sr.BaselineSeconds
	if sr.Delta > tol {
		return sr, fmt.Errorf("synth build time regressed %.1f%% vs %s (%.2fs -> %.2fs, tolerance %.0f%%)",
			sr.Delta*100, baselinePath, sr.BaselineSeconds, sr.BuildSecondsTotal, tol*100)
	}
	return sr, nil
}

// serverSmoke boots an in-process ccube-serve instance and drives it with
// the loadgen mix, recording service throughput alongside the engine
// numbers. Any response other than 200 or a deliberate 429 fails the run.
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

// verifyZoo runs the schedcheck static verifier over every algorithm on the
// topologies the experiments use, as a pre-flight: the figures mean nothing
// if a schedule has a hazard, a phantom link, or a false in-order claim.
// Returns false when any schedule fails.
func verifyZoo(w io.Writer) bool {
	algorithms := []collective.Algorithm{
		collective.AlgRing,
		collective.AlgTree,
		collective.AlgTreeOverlap,
		collective.AlgDoubleTree,
		collective.AlgDoubleTreeOverlap,
		collective.AlgHalvingDoubling,
	}
	lowCfg := topology.DefaultDGX1Config()
	lowCfg.LowBandwidth = true
	topos := []struct {
		name   string
		graph  *topology.Graph
		shared bool
	}{
		{"dgx1", topology.DGX1(topology.DefaultDGX1Config()), false},
		{"dgx1-low", topology.DGX1(lowCfg), false},
		{"fc4", topology.FullyConnected(4, 25e9, 0), true},
		{"fc16", topology.FullyConnected(16, 25e9, 0), true},
	}
	t := report.New("Static schedule verification (schedcheck)",
		"algorithm", "topology", "result")
	ok := true
	for _, tp := range topos {
		for _, alg := range algorithms {
			s, err := collective.Build(collective.Config{
				Graph: tp.graph, Algorithm: alg, Bytes: 64 << 20, Chunks: 16,
				AllowSharedChannels: tp.shared,
			})
			if err != nil {
				ok = false
				t.AddRow(alg.String(), tp.name, fmt.Sprintf("build failed: %v", err))
				continue
			}
			r := schedcheck.Check(s.Program())
			if !r.OK() {
				ok = false
				fmt.Fprintf(w, "%s on %s:\n%v\n", alg, tp.name, r.Err())
			}
			t.AddRow(alg.String(), tp.name, r.Summary())
		}
	}
	fmt.Fprintln(w, t.Render())
	return ok
}
