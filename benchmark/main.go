// Command benchmark measures ccube-serve end to end and layer by layer. It
// drives seeded request streams through the real HTTP path in a closed loop,
// checks every response, and prints the metrics named in BENCHMARK.json.
//
//	benchmark [-workload W] [-seed N] [-seconds S] [-trace [0|1]] [-out DIR]
//	benchmark compare PARENT_DIR CHANGE_DIR
//
// Each workload phase runs in its own child process. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			os.Exit(compareMain(args[1:], os.Stdout))
		case "child":
			os.Exit(childMain(args[1:]))
		case "probe":
			os.Exit(probeMain())
		}
	}
	os.Exit(benchMain(args, os.Stdout))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

func parseOptions(args []string) (options, error) {
	var o options
	var trace string
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated request streams")
	fs.Float64Var(&o.seconds, "seconds", 15, "measured seconds per workload")
	fs.StringVar(&trace, "trace", "0", "1: report per-layer metrics from a traced run instead of end-to-end ones")
	fs.StringVar(&o.out, "out", "out", "directory for results.jsonl and span files")
	if err := fs.Parse(bareTrace(args)); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	switch trace {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		return o, fmt.Errorf("-trace takes 0 or 1, got %q", trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	if o.workload != "" {
		if _, err := findWorkload(o.workload); err != nil {
			return o, err
		}
	}
	return o, nil
}

// bareTrace lets -trace stand alone: a -trace with no value after it means
// -trace=1.
func bareTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i, a := range args {
		if (a == "-trace" || a == "--trace") && (i+1 == len(args) || strings.HasPrefix(args[i+1], "-")) {
			a = "-trace=1"
		}
		out = append(out, a)
	}
	return out
}

// outcome is one workload's reported result.
type outcome struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	defs      []metricDef
}

func benchMain(args []string, stdout io.Writer) int {
	o, err := parseOptions(args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	var outcomes []outcome
	for _, w := range workloads {
		if o.workload != "" && w.name != o.workload {
			continue
		}
		oc, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", w.name, err)
			return 2
		}
		printOutcome(stdout, oc)
		if err := appendResult(o, oc); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		outcomes = append(outcomes, oc)
	}
	line, correct := resultLine(outcomes)
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// runWorkload runs a workload's phases in child processes. Untraced, one
// phase measures the end-to-end metrics over the full window, setting the
// server up three times. Traced, an untraced phase and a traced phase each
// take a third of the window, and Pass B replays for the last third.
func runWorkload(w workload, o options) (outcome, error) {
	window := time.Duration(o.seconds * float64(time.Second))
	base := childConfig{Workload: w.name, Seed: o.seed, Warmup: w.warmup, Setups: 1, Oracle: true, Out: o.out}
	oc := outcome{workload: w.name, defs: endToEnd}
	if !o.trace {
		cfg := base
		cfg.Window, cfg.MinOK, cfg.Setups = window, qualityRequests, 3
		r, err := spawn(cfg)
		if err != nil {
			return oc, err
		}
		oc.add(r)
		oc.metrics = pick(r.Metrics, endToEnd)
		return oc, nil
	}
	oc.defs = perLayer
	plain := base
	plain.Window = window / 3
	u, err := spawn(plain)
	if err != nil {
		return oc, err
	}
	traced := plain
	traced.Oracle, traced.Traced, traced.Replay = false, true, window/3
	a, err := spawn(traced)
	if err != nil {
		return oc, err
	}
	oc.add(u)
	oc.add(a)
	a.Metrics["server.alloc_kb_per_req"] = u.Metrics["server.alloc_kb_per_req"]
	a.Metrics["server.gc_per_kreq"] = u.Metrics["server.gc_per_kreq"]
	a.Metrics["trace.overhead_frac"] = 1 - a.Metrics["throughput_rps"]/u.Metrics["throughput_rps"]
	oc.metrics = pick(a.Metrics, perLayer)
	return oc, nil
}

func (oc *outcome) add(r *childResult) {
	oc.attempted += r.Attempted
	oc.failed += r.Failed
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", oc.workload, f)
	}
	oc.correct = oc.failed == 0
}

func pick(all map[string]float64, defs []metricDef) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		out[d.name] = all[d.name]
	}
	return out
}

// spawn runs one phase in a child process and waits for it to exit.
func spawn(cfg childConfig) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "child", string(arg))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("phase process: %w", err)
	}
	var r childResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("phase result: %w", err)
	}
	return &r, nil
}

func printOutcome(w io.Writer, oc outcome) {
	fmt.Fprintf(w, "== %s: %d requests, %d failed\n", oc.workload, oc.attempted, oc.failed)
	for _, d := range oc.defs {
		bound := ""
		if d.bound > 0 {
			bound = fmt.Sprintf("(bound %g%%, %s is better)", 100*d.bound, d.better)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %-11s %s\n", d.name, oc.metrics[d.name], d.unit, bound)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the final output line. With one workload its metrics
// keep their names; with several each name is prefixed by the workload.
func resultLine(outcomes []outcome) (string, bool) {
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]jsonMetric)}
	for _, oc := range outcomes {
		res.Correct = res.Correct && oc.correct
		res.Attempted += oc.attempted
		res.Failed += oc.failed
		for _, d := range oc.defs {
			name := d.name
			if len(outcomes) > 1 {
				name = oc.workload + "." + name
			}
			res.Metrics[name] = jsonMetric{Value: oc.metrics[d.name], Unit: d.unit}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // a struct of numbers, strings and bools always marshals
	}
	return string(b), res.Correct
}

// runRecord is one line of <out>/results.jsonl, the input of compare.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

func appendResult(o options, oc outcome) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(runRecord{
		Workload: oc.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Correct: oc.correct, Attempted: oc.attempted, Failed: oc.failed, Metrics: oc.metrics,
	})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(o.out, "results.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
