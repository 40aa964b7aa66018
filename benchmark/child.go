package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ccube/internal/collective"
	"ccube/internal/metrics"
	"ccube/internal/server"
)

// qualityRequests is the window prefix makespan_over_bound is taken over.
// Every end-to-end window serves at least this many requests, so the metric
// depends on the seed alone; it is also the floor that leaves ten samples
// beyond the p99.
const qualityRequests = 1000

// oracleEvery is the sampling rate of the post-window recompute.
const oracleEvery = 25

// childConfig is one measured phase of one workload, run in a fresh process
// so it starts with an empty process-wide schedule cache and its own peak
// RSS. The parent passes it as one JSON argument.
type childConfig struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Window   time.Duration `json:"window"` // measured window length
	MinOK    int           `json:"min_ok"` // the window runs on until this many requests succeed
	Warmup   int           `json:"warmup"` // leading stream requests sent by each setup
	Setups   int           `json:"setups"` // server boots; setup_s is their median
	Oracle   bool          `json:"oracle"` // recompute a sample of responses after the window
	Traced   bool          `json:"traced"` // Pass A with metrics on, then Pass B
	Replay   time.Duration `json:"replay"` // Pass B time budget
	Out      string        `json:"out"`    // directory for the spans file
}

// childResult is what a phase reports to the parent on its standard output.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // the first few, for the log
	Metrics   map[string]float64 `json:"metrics"`
}

func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// childMain is the entry point of a phase process.
func childMain(args []string) int {
	var cfg childConfig
	if len(args) != 1 || json.Unmarshal([]byte(args[0]), &cfg) != nil {
		fmt.Fprintln(os.Stderr, "benchmark child: want one JSON phase config")
		return 2
	}
	res, err := runChild(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", cfg.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", cfg.Workload, err)
		return 1
	}
	return 0
}

// runChild runs one phase: generate the stream (untimed), set the server up
// `setups` times, measure one window, check every response, then recompute
// a sample or, when traced, replay the misses.
func runChild(cfg childConfig) (*childResult, error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	stream := w.stream(cfg.Seed)
	res := &childResult{Metrics: make(map[string]float64)}
	if cfg.Traced {
		metrics.Default.Enable()
		defer metrics.Default.Disable()
	}

	var t *target
	var setupS []float64
	for i := 0; i < max(cfg.Setups, 1); i++ {
		if t != nil {
			if err := t.close(); err != nil {
				return nil, err
			}
		}
		collective.DefaultCache.Clear()
		began := time.Now()
		if t, err = boot(); err != nil {
			return nil, err
		}
		warm := t.closedLoop(stream, 0, cfg.Warmup, nil)
		setupS = append(setupS, time.Since(began).Seconds())
		for j := range warm {
			res.Attempted++
			if s := &warm[j]; !s.ok() {
				res.fail("warmup %s %s: status %d err %v", s.req.path, s.req.body, s.status, s.err)
			}
		}
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	before := counters()
	segs, probes, err := t.window(stream, cfg.Warmup, cfg.Window, cfg.MinOK)
	after := counters()
	runtime.ReadMemStats(&mem1)
	peakRSS, rssErr := peakRSSMiB()
	if closeErr := t.close(); err == nil {
		err = closeErr
	}
	if err == nil {
		err = rssErr
	}
	if err != nil {
		return nil, err
	}

	var samples []sample
	for _, sg := range segs {
		samples = append(samples, sg.samples...)
	}
	calls, quality := checkWindow(res, samples)
	m := res.Metrics
	endToEndMetrics(m, cfg.Workload, segs, probes, setupS)
	n := float64(len(samples))
	m["peak_rss_mb"] = peakRSS
	m["makespan_over_bound"] = geomean(quality)
	m["server.alloc_kb_per_req"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / n
	m["server.gc_per_kreq"] = float64(mem1.NumGC-mem0.NumGC) * 1000 / n

	if cfg.Oracle {
		oracle(res, calls, cfg.Seed)
	}
	if cfg.Traced {
		passA(m, samples, calls, before, after)
		metrics.Default.Disable()
		var misses []*call
		for _, k := range calls {
			if !samples[k.pos].hit {
				misses = append(misses, k)
			}
		}
		spans, mismatches := replayAll(misses, cfg.Replay)
		for _, msg := range mismatches {
			res.fail("replay: %s", msg)
		}
		for k, v := range spanMetrics(spans) {
			m[k] = v
		}
		fmt.Fprintf(os.Stderr, "%s: replayed misses, by span:\n%s", cfg.Workload, spanSummary(spans))
		if err := writeSpans(filepath.Join(cfg.Out, cfg.Workload+".spans.jsonl"), spans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// endToEndMetrics fills the timed end-to-end metrics, scaled to the
// reference machine by the run's mean probe time (see probeRef), and logs
// the raw values to standard error.
func endToEndMetrics(m map[string]float64, workload string, segs []segment, probes []time.Duration, setupS []float64) {
	var rps, cpuMS, lat []float64
	for _, sg := range segs {
		rps = append(rps, float64(sg.ok)/sg.dur.Seconds())
		if sg.ok > 0 {
			cpuMS = append(cpuMS, float64(sg.cpu)/float64(time.Millisecond)/float64(sg.ok))
		}
		for i := range sg.samples {
			if s := &sg.samples[i]; s.ok() {
				lat = append(lat, float64(s.latency())/float64(time.Millisecond))
			}
		}
	}
	var probeSum time.Duration
	for _, p := range probes {
		probeSum += p
	}
	speed := float64(probeSum) / float64(len(probes)) / float64(probeRef)
	raw := map[string]float64{
		"throughput_rps": median(rps),
		"latency_p50_ms": nearestRank(lat, 0.50),
		"latency_p99_ms": nearestRank(lat, 0.99),
		"cpu_ms_per_req": median(cpuMS),
		"setup_s":        median(setupS),
	}
	fmt.Fprintf(os.Stderr, "%s: %d requests in %d segments, probe scale %.3f, raw: %.2f rps, p50 %.3f ms, p99 %.3f ms, %.3f cpu ms/req, setup %.3f s\n",
		workload, len(lat), len(segs), speed, raw["throughput_rps"], raw["latency_p50_ms"],
		raw["latency_p99_ms"], raw["cpu_ms_per_req"], raw["setup_s"])
	m["throughput_rps"] = raw["throughput_rps"] * speed
	for _, name := range []string{"latency_p50_ms", "latency_p99_ms", "cpu_ms_per_req", "setup_s"} {
		m[name] = raw[name] / speed
	}
}

// checkWindow counts and checks every window response. It returns the
// parsed successful calls, indexed like samples, and the time-over-bound
// ratios of the distinct requests among the first qualityRequests.
func checkWindow(res *childResult, samples []sample) (calls []*call, quality []float64) {
	var c checker
	seen := make(map[string]bool)
	for i := range samples {
		s := &samples[i]
		res.Attempted++
		if !s.ok() {
			res.fail("%s %s: status %d err %v: %s", s.req.path, s.req.body, s.status, s.err, bytes.TrimSpace(s.body))
			continue
		}
		req, err := decodeRequest(s.req.path, s.req.body)
		var resp any
		if err == nil {
			resp, err = decodeResponse(s.req.path, s.body)
		}
		if err != nil {
			res.fail("%s %s: %v", s.req.path, s.req.body, err)
			continue
		}
		k := &call{pos: s.pos, path: s.req.path, body: s.req.body, req: req, resp: resp}
		ratio, err := c.check(k)
		if err != nil {
			res.fail("%s %s: %v", s.req.path, s.req.body, err)
			continue
		}
		calls = append(calls, k)
		key := s.req.path + string(s.req.body)
		if s.pos < qualityRequests && !seen[key] {
			seen[key] = true
			quality = append(quality, ratio)
		}
	}
	return calls, quality
}

// oracle recomputes a seeded 1-in-oracleEvery sample of the served calls
// with an empty schedule cache and fresh graphs, and requires every answer
// to match the served one exactly.
func oracle(res *childResult, calls []*call, seed uint64) {
	collective.DefaultCache.Clear()
	r := newRand(seed, "oracle")
	for _, k := range calls {
		if r.IntN(oracleEvery) != 0 {
			continue
		}
		got, err := recompute(context.Background(), k.req)
		if want := answer(k.resp); err != nil || got != want {
			res.fail("oracle %s %s: recomputed %q err %v, served %q", k.path, k.body, got, err, want)
		}
	}
}

// passA derives the per-layer metrics the traced HTTP window yields: cache
// outcomes from response headers, and counter deltas across the window.
func passA(m map[string]float64, samples []sample, calls []*call, before, after map[string]float64) {
	var hit, miss []float64
	for i := range samples {
		if s := &samples[i]; s.ok() {
			ms := float64(s.latency()) / float64(time.Millisecond)
			if s.hit {
				hit = append(hit, ms)
			} else {
				miss = append(miss, ms)
			}
		}
	}
	faultedMisses := 0.0
	for _, k := range calls {
		if r, ok := k.req.(*server.SimulateRequest); ok && r.Fault != "" && !samples[k.pos].hit {
			faultedMisses++
		}
	}
	n := float64(len(samples))
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := delta("cache.hits"), delta("cache.misses")
	m["server.respcache_hit_ratio"] = ratio(float64(len(hit)), n)
	m["server.miss_latency_p50_ms"] = nearestRank(miss, 0.5)
	m["server.hit_cost_ratio"] = ratio(nearestRank(hit, 0.5), nearestRank(miss, 0.5))
	m["server.singleflight_shared"] = delta("ccube_serve_singleflight_shared_total")
	m["collective.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["collective.patch_ratio"] = ratio(delta("cache.patched"), misses)
	m["collective.evictions"] = delta("cache.evictions")
	m["des.tasks_per_req"] = ratio(delta("des_tasks_executed_total"), n)
	m["train.steps"] = delta("train_steps_total")
	m["fault.repairs_per_req"] = ratio(delta("fault_repairs_total"), faultedMisses)
	m["fault.rerouted_transfers"] = delta("fault_rerouted_transfers_total")
}

// counters snapshots every unlabeled counter of the default registry, and
// the schedule cache's statistics under "cache.*".
func counters() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range metrics.Default.Snapshot() {
		if f.Kind == "counter" && f.Label == "" && len(f.Values) == 1 {
			out[f.Name] = f.Values[0].Value
		}
	}
	c := collective.DefaultCache
	hits, misses := c.Stats()
	out["cache.hits"], out["cache.misses"] = float64(hits), float64(misses)
	out["cache.patched"], out["cache.evictions"] = float64(c.IncrementalBuilds()), float64(c.Evictions())
	return out
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb float64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
