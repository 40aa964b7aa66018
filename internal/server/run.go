package server

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"ccube/internal/autotune"
	"ccube/internal/collective"
	"ccube/internal/dnn"
	"ccube/internal/fault"
	"ccube/internal/report"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// runPlan evaluates every algorithm on the topology and ranks them.
func (s *Server) runPlan(ctx context.Context, req PlanRequest) (any, *apiError) {
	g, err := s.topos.shared(req.Topology)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	if req.Bytes <= 0 {
		return nil, errBadRequest("bytes must be positive")
	}
	obj := autotune.Latency
	switch req.Objective {
	case "", "latency":
	case "turnaround":
		obj = autotune.Turnaround
	default:
		return nil, errBadRequest("unknown objective %q (want latency or turnaround)", req.Objective)
	}
	ranked, err := autotune.SelectWith(ctx, g, int64(req.Bytes), autotune.Options{
		Objective:      obj,
		RequireInOrder: req.RequireInOrder,
		AllowShared:    req.AllowShared,
		AllowSynth:     req.AllowSynth,
	})
	if err != nil {
		return nil, mapRunError(err)
	}

	resp := &PlanResponse{
		Topology:  req.Topology,
		Bytes:     int64(req.Bytes),
		Objective: obj.String(),
	}
	tbl := report.New(
		fmt.Sprintf("Plan: %s, %s, objective=%s", req.Topology, report.Bytes(int64(req.Bytes)), obj),
		"rank", "algorithm", "total", "turnaround", "in-order")
	for i, c := range ranked {
		pc := PlanCandidate{
			Algorithm:    c.Algorithm.String(),
			TotalNS:      int64(c.Total),
			Total:        report.Time(c.Total),
			TurnaroundNS: int64(c.Turnaround),
			Turnaround:   report.Time(c.Turnaround),
			InOrder:      c.InOrder,
		}
		resp.Candidates = append(resp.Candidates, pc)
		tbl.AddRow(fmt.Sprintf("%d", i+1), pc.Algorithm, pc.Total, pc.Turnaround,
			fmt.Sprintf("%v", pc.InOrder))
	}
	resp.Best = resp.Candidates[0]
	resp.Table = tbl
	return resp, nil
}

// checkChunks refuses a requested chunk count outside [0, MaxAutoChunks]
// (0 asks for the cost-model optimum): a build takes an explicit count as
// given, and its transfers grow with it.
func checkChunks(n int) *apiError {
	if n < 0 || n > collective.MaxAutoChunks {
		return errBadRequest("chunks must be in [0, %d], got %d", collective.MaxAutoChunks, n)
	}
	return nil
}

// runSimulate executes one collective, optionally under a fault plan.
func (s *Server) runSimulate(ctx context.Context, req SimulateRequest) (any, *apiError) {
	alg, ok := collective.ParseAlgorithm(req.Algorithm)
	if !ok {
		return nil, errBadRequest("unknown algorithm %q (want %s)",
			req.Algorithm, strings.Join(collective.AlgorithmNames(), ", "))
	}
	if req.Bytes <= 0 {
		return nil, errBadRequest("bytes must be positive")
	}
	if err := checkChunks(req.Chunks); err != nil {
		return nil, err
	}
	topN := req.TopChannels
	if topN <= 0 {
		topN = 8
	}

	var g *topology.Graph
	var err error
	if req.Fault != "" {
		// Fault plans mutate channel health: use a private graph.
		g, err = topology.Named(req.Topology)
	} else {
		g, err = s.topos.shared(req.Topology)
	}
	if err != nil {
		return nil, errBadRequest("%v", err)
	}

	cfg := collective.Config{
		Graph:               g,
		Algorithm:           alg,
		Bytes:               int64(req.Bytes),
		Chunks:              req.Chunks,
		AllowSharedChannels: req.AllowShared,
	}

	var res *collective.Result
	var repair *RepairSummary
	if req.Fault != "" {
		plan, perr := fault.ParseSpec(g, req.Fault)
		if perr != nil {
			return nil, errBadRequest("%v", perr)
		}
		var rep *fault.RunReport
		res, rep, err = fault.RunCollectiveCtx(ctx, cfg, plan)
		if err != nil {
			return nil, mapRunError(err)
		}
		repair = &RepairSummary{Attempts: rep.Attempts, Rerouted: rep.Rerouted()}
		for _, cid := range rep.MidRunDeaths {
			repair.MidRunDeaths = append(repair.MidRunDeaths, fmt.Sprintf("ch%d", cid))
		}
		for _, r := range rep.Repairs {
			repair.Routes = append(repair.Routes, r.Routes...)
		}
	} else {
		res, err = collective.RunCtx(ctx, cfg)
		if err != nil {
			return nil, mapRunError(err)
		}
	}

	resp := &SimulateResponse{
		Topology:      req.Topology,
		Algorithm:     req.Algorithm,
		Bytes:         int64(req.Bytes),
		Participants:  g.NumNodes(),
		Chunks:        res.Partition.NumChunks(),
		TotalNS:       int64(res.Total),
		Total:         report.Time(res.Total),
		TurnaroundNS:  int64(res.Turnaround),
		Turnaround:    report.Time(res.Turnaround),
		BandwidthGBps: res.Bandwidth() / 1e9,
		InOrder:       res.InOrder,
		Channels:      busiestChannels(g, res, topN),
		Repair:        repair,
	}

	tbl := report.New(
		fmt.Sprintf("AllReduce: %s on %s, %s", req.Algorithm, req.Topology, report.Bytes(int64(req.Bytes))),
		"metric", "value")
	tbl.AddRow("participants", fmt.Sprintf("%d", resp.Participants))
	tbl.AddRow("chunks", fmt.Sprintf("%d", resp.Chunks))
	tbl.AddRow("total time", resp.Total)
	tbl.AddRow("achieved bandwidth", report.GBps(res.Bandwidth()))
	tbl.AddRow("gradient turnaround", resp.Turnaround)
	tbl.AddRow("in-order delivery", fmt.Sprintf("%v", resp.InOrder))
	if repair != nil {
		tbl.AddRow("launch attempts", fmt.Sprintf("%d", repair.Attempts))
		tbl.AddRow("rerouted transfers", fmt.Sprintf("%d", repair.Rerouted))
	}
	resp.Table = tbl
	return resp, nil
}

// busiestChannels reports the topN channels by utilization. It ranks
// (channel, utilization) pairs and names only the channels it returns.
func busiestChannels(g *topology.Graph, res *collective.Result, topN int) []ChannelUse {
	type busy struct {
		ch   topology.ChannelID
		util float64
	}
	var ranked []busy
	for i, t := range res.ChannelBusy {
		if t > 0 {
			ranked = append(ranked, busy{topology.ChannelID(i), res.Utilization(topology.ChannelID(i))})
		}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].util > ranked[b].util })
	uses := make([]ChannelUse, min(len(ranked), topN))
	for k := range uses {
		ch := g.Channel(ranked[k].ch)
		uses[k] = ChannelUse{
			Channel:     fmt.Sprintf("%s->%s (%s)", g.Node(ch.From).Name, g.Node(ch.To).Name, ch.Tag),
			Utilization: ranked[k].util,
		}
	}
	return uses
}

// models mirrors the ccube-train CLI naming.
var models = map[string]func() dnn.Model{
	"zfnet":     dnn.ZFNet,
	"vgg16":     dnn.VGG16,
	"resnet50":  dnn.ResNet50,
	"bert-base": dnn.BERTBase,
}

// runTrain simulates one training iteration.
func (s *Server) runTrain(ctx context.Context, req TrainRequest) (any, *apiError) {
	if req.Topology != "dgx1" && req.Topology != "dgx1-low" {
		return nil, errBadRequest("train runs on one box: topology must be dgx1 or dgx1-low, got %q", req.Topology)
	}
	mk, ok := models[req.Model]
	if !ok {
		return nil, errBadRequest("unknown model %q (want zfnet, vgg16, resnet50, bert-base)", req.Model)
	}
	if req.Batch < 1 {
		return nil, errBadRequest("batch must be >= 1, got %d", req.Batch)
	}
	if err := checkChunks(req.Chunks); err != nil {
		return nil, err
	}
	g, err := s.topos.shared(req.Topology)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	cfg := train.Config{
		Model:               mk(),
		Batch:               req.Batch,
		Graph:               g,
		Chunks:              req.Chunks,
		AllowSharedChannels: req.AllowShared,
	}

	var res *train.Result
	mode := train.Mode(req.Mode)
	if mode == train.ModeDDP {
		res, err = train.RunBackwardOverlapCtx(ctx, cfg)
	} else {
		switch mode {
		case train.ModeB, train.ModeC1, train.ModeC2, train.ModeR, train.ModeCC:
		default:
			return nil, errBadRequest("unknown mode %q (want B, C1, C2, R, CC, DDP)", req.Mode)
		}
		cfg.Mode = mode
		res, err = train.RunCtx(ctx, cfg)
	}
	if err != nil {
		return nil, mapRunError(err)
	}

	resp := &TrainResponse{
		Topology:      req.Topology,
		Model:         req.Model,
		Batch:         req.Batch,
		Mode:          string(res.Mode),
		IterTimeNS:    int64(res.IterTime),
		IterTime:      report.Time(res.IterTime),
		ComputeTimeNS: int64(res.ComputeTime),
		ComputeTime:   report.Time(res.ComputeTime),
		Normalized:    res.Normalized,
	}
	for _, t := range res.PerGPU {
		resp.PerGPUNS = append(resp.PerGPUNS, int64(t))
	}

	tbl := report.New(
		fmt.Sprintf("Training: %s batch=%d mode=%s on %s", req.Model, req.Batch, res.Mode, req.Topology),
		"metric", "value")
	tbl.AddRow("iteration time", resp.IterTime)
	tbl.AddRow("ideal compute time", resp.ComputeTime)
	tbl.AddRow("normalized throughput", report.F2(res.Normalized))
	resp.Table = tbl
	return resp, nil
}
