// Command ccube-sim runs a single AllReduce on the discrete-event simulator
// and prints its timing decomposition: total time, achieved bandwidth,
// gradient turnaround, per-chunk completion, and the busiest channels.
//
// Usage:
//
//	ccube-sim -algo ccube -bytes 64M
//	ccube-sim -algo ring -topo dgx1-low -bytes 128M
//	ccube-sim -algo tree -topo cluster:64 -bytes 1M -chunks 32
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ccube/internal/collective"
	"ccube/internal/fault"
	"ccube/internal/metrics"
	"ccube/internal/report"
	"ccube/internal/synth"
	"ccube/internal/topology"
	"ccube/internal/trace"
)

func main() {
	algo := flag.String("algo", "ccube", "algorithm: ring, tree, tree-overlap, double-tree, ccube, halving-doubling, or synth (compile a schedule for the topology)")
	topo := flag.String("topo", "dgx1", "topology: dgx1, dgx1-low, cluster:<gpus>, fc:<gpus>, fcasym:<gpus>, or rr:<gpus>")
	bytesFlag := flag.String("bytes", "64M", "message size (supports K/M/G suffixes)")
	chunks := flag.Int("chunks", 0, "chunk count (0 = cost-model optimum)")
	shared := flag.Bool("shared", false, "allow logical flows to share physical channels")
	topChannels := flag.Int("top", 8, "how many busiest channels to show")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON timeline to this file")
	gantt := flag.Bool("gantt", false, "print an ASCII Gantt view of channel occupancy")
	showTopo := flag.Bool("show-topo", false, "print the topology's link summary first")
	faultSpec := flag.String("fault", "", `inject faults and repair around them, e.g. "kill:2-3", "degrade:0-1x4,slow:0x1.5", "kill:ch17@50000" (@T = virtual ns)`)
	showMetrics := flag.Bool("metrics", false, "collect runtime metrics and print a Prometheus text dump after the run")
	metricsJSON := flag.String("metrics-json", "", "collect runtime metrics and write a JSON snapshot to this file")
	flag.Parse()

	if *showMetrics || *metricsJSON != "" {
		metrics.Default.Enable()
	}

	isSynth := *algo == "synth"
	var alg collective.Algorithm
	if !isSynth {
		var ok bool
		alg, ok = collective.ParseAlgorithm(*algo)
		if !ok {
			fail("unknown algorithm %q (want synth, %s)", *algo, strings.Join(collective.AlgorithmNames(), ", "))
		}
	}
	g, err := topology.Named(*topo)
	if err != nil {
		fail("%v", err)
	}
	n, err := report.ParseBytes(*bytesFlag)
	if err != nil {
		fail("%v", err)
	}
	if *showTopo {
		fmt.Println(topology.Describe(g))
	}

	cfg := collective.Config{
		Graph:               g,
		Algorithm:           alg,
		Bytes:               n,
		Chunks:              *chunks,
		AllowSharedChannels: *shared,
	}
	if *faultSpec != "" {
		if isSynth {
			// Synthesis already adapts to channel health: degrade or kill
			// links on the topology itself and recompile instead of
			// patching a schedule around a mid-flight fault.
			fail("-algo synth does not support -fault; synthesis compiles around degraded links directly")
		}
		runFaulted(g, cfg, *algo, *topo, *faultSpec, *topChannels)
		dumpMetrics(*showMetrics, *metricsJSON)
		return
	}
	var sched *collective.Schedule
	if isSynth {
		res, err := synth.Synthesize(context.Background(), g, n, synth.Options{
			MaxChunks: *chunks,
		})
		if err != nil {
			fail("%v", err)
		}
		sched = res.Schedule
		fmt.Printf("synth: %s\n\n", res.Report)
	} else {
		sched, err = collective.BuildCached(cfg)
	}
	if err != nil {
		fail("%v", err)
	}
	res, taskGraph, err := sched.ExecuteOnCtx(context.Background(), sched.Graph.Resources())
	if err != nil {
		fail("%v", err)
	}
	if *traceFile != "" {
		// The fresh graph holds one task per transfer, in id order, named
		// only by kind; name each by its chunk and endpoints for the viewer.
		taskGraph.SetNamer(sched)
		f, err := os.Create(*traceFile)
		if err != nil {
			fail("%v", err)
		}
		if err := trace.Chrome(f, taskGraph); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("timeline written to %s (load in chrome://tracing)\n\n", *traceFile)
	}

	t := report.New(fmt.Sprintf("AllReduce: %s on %s, %s", *algo, *topo, report.Bytes(n)),
		"metric", "value")
	t.AddRow("participants", fmt.Sprintf("%d", g.NumNodes()))
	t.AddRow("chunks", fmt.Sprintf("%d", res.Partition.NumChunks()))
	t.AddRow("transfers scheduled", fmt.Sprintf("%d", sched.NumTransfers()))
	t.AddRow("total time", report.Time(res.Total))
	t.AddRow("achieved bandwidth", report.GBps(res.Bandwidth()))
	t.AddRow("gradient turnaround", report.Time(res.Turnaround))
	t.AddRow("in-order delivery", fmt.Sprintf("%v", res.InOrder))
	if d := sched.DetourNodes(); len(d) > 0 {
		var names []string
		for _, id := range d {
			names = append(names, g.Node(id).Name)
		}
		t.AddRow("detour intermediates", strings.Join(names, ", "))
	}
	fmt.Println(t.Render())

	printBusiest(g, res, *topChannels)

	if *gantt {
		fmt.Println(trace.Gantt(taskGraph, trace.GanttOptions{Width: 100, MaxLanes: *topChannels}))
	}

	dumpMetrics(*showMetrics, *metricsJSON)
}

// dumpMetrics emits the collected runtime metrics: Prometheus text on stdout
// when show is set, a JSON snapshot to jsonPath when non-empty.
func dumpMetrics(show bool, jsonPath string) {
	if show {
		fmt.Println("-- runtime metrics (Prometheus text format) --")
		if err := metrics.Default.WritePrometheus(os.Stdout); err != nil {
			fail("%v", err)
		}
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			fail("%v", err)
		}
		if err := metrics.Default.WriteJSON(f); err != nil {
			fail("%v", err)
		}
		if err := f.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("metrics snapshot written to %s\n", jsonPath)
	}
}

// runFaulted executes the collective under a fault plan: static faults are
// injected, the schedule is repaired around dead links, timed faults are
// armed on the channel resources, and mid-run link deaths trigger a
// repair-and-relaunch. Prints the fault plan, the repair summary, and the
// usual timing decomposition.
func runFaulted(g *topology.Graph, cfg collective.Config, algo, topo, spec string, topChannels int) {
	plan, err := fault.ParseSpec(g, spec)
	if err != nil {
		fail("%v", err)
	}
	ft := report.New("Injected faults", "event", "detail")
	for _, e := range plan.Events {
		ch := ""
		switch e.Kind {
		case fault.GPUSlow:
			ch = g.Node(e.GPU).Name
		default:
			c := g.Channel(e.Channel)
			ch = fmt.Sprintf("ch%d %s->%s (%s)", e.Channel, g.Node(c.From).Name, g.Node(c.To).Name, c.Tag)
		}
		ft.AddRow(e.Kind.String(), fmt.Sprintf("%s %s", ch, e.String()))
	}
	fmt.Println(ft.Render())

	res, rep, err := fault.RunCollectiveCtx(context.Background(), cfg, plan)
	if err != nil {
		fail("%v", err)
	}

	rt := report.New("Repair summary", "metric", "value")
	rt.AddRow("launch attempts", fmt.Sprintf("%d", rep.Attempts))
	rt.AddRow("rerouted transfers", fmt.Sprintf("%d", rep.Rerouted()))
	if len(rep.MidRunDeaths) > 0 {
		var ids []string
		for _, cid := range rep.MidRunDeaths {
			ids = append(ids, fmt.Sprintf("ch%d", cid))
		}
		rt.AddRow("mid-run link deaths", strings.Join(ids, ", "))
	}
	for _, r := range rep.Repairs {
		for _, route := range r.Routes {
			rt.AddRow("reroute", route)
		}
	}
	fmt.Println(rt.Render())

	t := report.New(fmt.Sprintf("AllReduce under faults: %s on %s, %s", algo, topo, report.Bytes(cfg.Bytes)),
		"metric", "value")
	t.AddRow("participants", fmt.Sprintf("%d", g.NumNodes()))
	t.AddRow("chunks", fmt.Sprintf("%d", res.Partition.NumChunks()))
	t.AddRow("total time", report.Time(res.Total))
	t.AddRow("achieved bandwidth", report.GBps(res.Bandwidth()))
	t.AddRow("gradient turnaround", report.Time(res.Turnaround))
	fmt.Println(t.Render())

	printBusiest(g, res, topChannels)
}

func printBusiest(g *topology.Graph, res *collective.Result, topChannels int) {
	type chanUse struct {
		name string
		busy float64
	}
	var uses []chanUse
	for i, busy := range res.ChannelBusy {
		if busy > 0 {
			uses = append(uses, chanUse{
				name: fmt.Sprintf("%s->%s (%s)",
					g.Node(g.Channel(topology.ChannelID(i)).From).Name,
					g.Node(g.Channel(topology.ChannelID(i)).To).Name,
					g.Channel(topology.ChannelID(i)).Tag),
				busy: res.Utilization(topology.ChannelID(i)),
			})
		}
	}
	sort.Slice(uses, func(a, b int) bool { return uses[a].busy > uses[b].busy })
	ct := report.New("Busiest channels", "channel", "utilization")
	for i, u := range uses {
		if i >= topChannels {
			ct.AddNote("%d more channels carried traffic", len(uses)-topChannels)
			break
		}
		ct.AddRow(u.name, report.Percent(u.busy))
	}
	fmt.Println(ct.Render())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
