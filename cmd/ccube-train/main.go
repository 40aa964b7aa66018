// Command ccube-train simulates one steady-state data-parallel training
// iteration on the DGX-1 model and compares the paper's configurations
// (B, C1, C2, R, CC) plus the DDP-style backward-overlap baseline.
//
// Usage:
//
//	ccube-train -model resnet50 -batch 64
//	ccube-train -model vgg16 -batch 32 -bandwidth low
//	ccube-train -model zfnet -batch 16 -mode CC
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"

	"ccube/internal/dnn"
	"ccube/internal/metrics"
	"ccube/internal/report"
	"ccube/internal/server"
	"ccube/internal/topology"
	"ccube/internal/trace"
	"ccube/internal/train"
)

func main() {
	modelName := flag.String("model", "resnet50", "model: zfnet, vgg16, resnet50, bert-base")
	modelFile := flag.String("model-file", "", "JSON model description (overrides -model; see dnn.ReadModel)")
	batch := flag.Int("batch", 64, "per-GPU batch size")
	bandwidth := flag.String("bandwidth", "high", "interconnect: high (NVLink) or low (PCIe-class)")
	mode := flag.String("mode", "all", "configuration: B, C1, C2, R, CC, DDP, or all")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt of GPU streams and channels (single mode only)")
	traceFile := flag.String("trace", "", "write a Chrome trace-event timeline (single mode only)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file")
	showMetrics := flag.Bool("metrics", false, "collect runtime metrics and print a Prometheus text dump after the run")
	metricsJSON := flag.String("metrics-json", "", "collect runtime metrics and write a JSON snapshot to this file")
	metricsAddr := flag.String("metrics-addr", "", "serve GET /metrics and /healthz on this address while running (e.g. :9090)")
	flag.Parse()

	if *showMetrics || *metricsJSON != "" || *metricsAddr != "" {
		metrics.Default.Enable()
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fail("%v", err)
		}
		defer ln.Close()
		// Reuses the server package's ops endpoints; no second handler
		// implementation.
		//lint:ignore goroutine-leak process-lifetime ops server; the deferred ln.Close unblocks Serve at exit
		go http.Serve(ln, server.OpsHandler())
		fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", ln.Addr())
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("%v", err)
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

	var model dnn.Model
	var err error
	if *modelFile != "" {
		f, ferr := os.Open(*modelFile)
		if ferr != nil {
			fail("%v", ferr)
		}
		model, err = dnn.ReadModel(f)
		f.Close()
	} else {
		model, err = dnn.ByName(*modelName)
	}
	if err != nil {
		fail("%v", err)
	}
	cfg := topology.DefaultDGX1Config()
	switch *bandwidth {
	case "high":
	case "low":
		cfg.LowBandwidth = true
	default:
		fail("unknown bandwidth %q", *bandwidth)
	}
	g := topology.DGX1(cfg)

	modes := train.Modes()
	modes = append(modes, train.ModeDDP)
	if *mode != "all" {
		modes = []train.Mode{train.Mode(*mode)}
	}

	t := report.New(
		fmt.Sprintf("Training iteration: %s, batch %d/GPU, %s bandwidth (8-GPU DGX-1)",
			model.Name, *batch, *bandwidth),
		"mode", "iteration", "normalized perf", "comm (standalone)", "first fwd wait", "bubbles")
	for _, m := range modes {
		var res *train.Result
		var err error
		tc := train.Config{Model: model, Batch: *batch, Graph: g, Mode: m}
		if m == train.ModeDDP {
			res, err = train.RunBackwardOverlapCtx(context.Background(), tc)
		} else {
			res, err = train.RunCtx(context.Background(), tc)
		}
		if err != nil {
			fail("mode %s: %v", m, err)
		}
		if taskGraph := res.Graph; len(modes) == 1 && taskGraph != nil {
			if *gantt {
				fmt.Println(trace.Gantt(taskGraph, trace.GanttOptions{Width: 100, MaxLanes: 12}))
			}
			if *traceFile != "" {
				f, err := os.Create(*traceFile)
				if err != nil {
					fail("%v", err)
				}
				if err := trace.Chrome(f, taskGraph); err != nil {
					fail("%v", err)
				}
				f.Close()
				fmt.Printf("timeline written to %s\n\n", *traceFile)
			}
		}
		comm, wait, bub := "-", "-", "-"
		if m != train.ModeDDP {
			comm = report.Time(res.CommTime)
			wait = report.Time(res.FirstForwardWait)
			bub = report.Time(res.Bubbles)
		}
		t.AddRow(string(m), report.Time(res.IterTime), report.F2(res.Normalized), comm, wait, bub)
	}
	t.AddNote("B=double-tree baseline, C1=overlapped tree, C2=gradient queuing, R=ring, CC=C-Cube, DDP=bucketed backward overlap")
	fmt.Println(t.Render())

	if *showMetrics {
		fmt.Println("-- runtime metrics (Prometheus text format) --")
		if err := metrics.Default.WritePrometheus(os.Stdout); err != nil {
			fail("%v", err)
		}
	}
	if *metricsJSON != "" {
		f, err := os.Create(*metricsJSON)
		if err != nil {
			fail("%v", err)
		}
		if err := metrics.Default.WriteJSON(f); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("metrics snapshot written to %s\n", *metricsJSON)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
