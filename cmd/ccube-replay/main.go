// Command ccube-replay executes a recorded collective trace against a
// chosen algorithm and topology, reporting per-op and aggregate timing —
// the standard way to compare collective backends on a real workload's
// communication pattern.
//
// Usage:
//
//	ccube-replay -trace iter.json -algo ccube
//	ccube-replay -gen resnet50 -batch 64 > iter.json     # generate a trace
//	ccube-replay -gen resnet50 -gen-style bucketed > ddp.json
package main

import (
	"flag"
	"fmt"
	"os"

	"ccube/internal/collective"
	"ccube/internal/dnn"
	"ccube/internal/replay"
	"ccube/internal/report"
	"ccube/internal/topology"
)

func main() {
	traceFile := flag.String("trace", "", "trace JSON to replay")
	algo := flag.String("algo", "ccube", "AllReduce algorithm for 'allreduce' ops")
	low := flag.Bool("low-bandwidth", false, "use the low-bandwidth DGX-1")
	gen := flag.String("gen", "", "instead of replaying, generate a trace for this model (zfnet, vgg16, resnet50, bert-base) to stdout")
	genStyle := flag.String("gen-style", "oneshot", "generated trace style: oneshot or bucketed")
	batch := flag.Int("batch", 64, "batch size for -gen")
	flag.Parse()

	if *gen != "" {
		model, err := dnn.ByName(*gen)
		if err != nil {
			fail("%v", err)
		}
		var tr replay.Trace
		switch *genStyle {
		case "oneshot":
			tr = replay.FromModel(model, *batch, dnn.V100())
		case "bucketed":
			tr = replay.FromModelBucketed(model, *batch, dnn.V100(), 25<<20)
		default:
			fail("unknown -gen-style %q", *genStyle)
		}
		if err := replay.Write(os.Stdout, tr); err != nil {
			fail("%v", err)
		}
		return
	}

	if *traceFile == "" {
		fail("either -trace or -gen is required")
	}
	alg, ok := collective.ParseAlgorithm(*algo)
	if !ok {
		fail("unknown algorithm %q", *algo)
	}
	f, err := os.Open(*traceFile)
	if err != nil {
		fail("%v", err)
	}
	tr, err := replay.Read(f)
	f.Close()
	if err != nil {
		fail("%v", err)
	}

	cfg := topology.DefaultDGX1Config()
	cfg.LowBandwidth = *low
	res, err := replay.Run(tr, replay.Config{
		Graph:     topology.DGX1(cfg),
		Algorithm: alg,
	})
	if err != nil {
		fail("%v", err)
	}

	t := report.New(fmt.Sprintf("Replay: %s with %s AllReduce", tr.Name, *algo),
		"op", "kind", "size/compute", "duration")
	for i, op := range res.PerOp {
		var sz string
		if op.Op.Kind == "compute" {
			sz = fmt.Sprintf("%.0fus", op.Op.ComputeUs)
		} else {
			sz = report.Bytes(op.Op.Bytes)
		}
		t.AddRow(fmt.Sprintf("%d", i), op.Op.Kind, sz, report.Time(op.Duration))
	}
	t.AddNote("total %v = compute %v + communication %v (%s in collectives)",
		res.Total, res.ComputeTime, res.CommTime, report.Percent(res.CommFraction()))
	fmt.Println(t.Render())
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
