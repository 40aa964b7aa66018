package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"ccube/internal/autotune"
	"ccube/internal/collective"
	"ccube/internal/dnn"
	"ccube/internal/fault"
	"ccube/internal/server"
	"ccube/internal/topology"
	"ccube/internal/train"
)

// decodeRequest parses a generated body into the server's request type for
// its endpoint.
func decodeRequest(path string, body []byte) (any, error) {
	var v any
	switch path {
	case pathPlan:
		v = new(server.PlanRequest)
	case pathSimulate:
		v = new(server.SimulateRequest)
	case pathTrain:
		v = new(server.TrainRequest)
	default:
		return nil, fmt.Errorf("unknown path %q", path)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, fmt.Errorf("decode %s request: %w", path, err)
	}
	return v, nil
}

// decodeResponse parses a 200 body into the server's response type for its
// endpoint.
func decodeResponse(path string, body []byte) (any, error) {
	var v any
	switch path {
	case pathPlan:
		v = new(server.PlanResponse)
	case pathSimulate:
		v = new(server.SimulateResponse)
	case pathTrain:
		v = new(server.TrainResponse)
	default:
		return nil, fmt.Errorf("unknown path %q", path)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return nil, fmt.Errorf("decode %s response: %w", path, err)
	}
	return v, nil
}

// call is one successful window request, parsed.
type call struct {
	pos  int
	path string
	body []byte
	req  any // *server.PlanRequest, *server.SimulateRequest or *server.TrainRequest
	resp any // the matching *server.*Response
}

// checker checks responses against invariants that hold for any correct
// server, using healthy graphs of its own for the lower bound.
type checker struct {
	graphs graphSet
}

func (c *checker) bound(topo string, bytes int64) (float64, error) {
	g, err := c.graphs.get(topo, buildTopology)
	if err != nil {
		return 0, err
	}
	return lowerBound(g, bytes), nil
}

// check verifies one response and returns its time over its lower bound:
// a collective's makespan over lowerBound, or a training iteration over its
// single-GPU compute time.
func (c *checker) check(k *call) (float64, error) {
	switch r := k.resp.(type) {
	case *server.PlanResponse:
		req := k.req.(*server.PlanRequest)
		if len(r.Candidates) == 0 || r.Best != r.Candidates[0] {
			return 0, fmt.Errorf("plan: best is not the first of %d candidates", len(r.Candidates))
		}
		lb, err := c.bound(req.Topology, int64(req.Bytes))
		if err != nil {
			return 0, err
		}
		turnaround := r.Objective == "turnaround"
		for i, cand := range r.Candidates {
			if float64(cand.TotalNS) < lb {
				return 0, fmt.Errorf("plan: %s total %d ns beats the lower bound %.0f ns", cand.Algorithm, cand.TotalNS, lb)
			}
			if i > 0 && objectiveValue(cand, turnaround) < objectiveValue(r.Candidates[i-1], turnaround) {
				return 0, fmt.Errorf("plan: candidates not sorted by %s at rank %d", r.Objective, i+1)
			}
		}
		return float64(r.Best.TotalNS) / lb, nil
	case *server.SimulateResponse:
		req := k.req.(*server.SimulateRequest)
		g, err := c.graphs.get(req.Topology, buildTopology)
		if err != nil {
			return 0, err
		}
		if r.Participants != len(g.GPUs()) {
			return 0, fmt.Errorf("simulate: %d participants on %s, want %d", r.Participants, req.Topology, len(g.GPUs()))
		}
		lb := lowerBound(g, int64(req.Bytes))
		if float64(r.TotalNS) < lb {
			return 0, fmt.Errorf("simulate: total %d ns beats the lower bound %.0f ns", r.TotalNS, lb)
		}
		return float64(r.TotalNS) / lb, nil
	case *server.TrainResponse:
		if !(r.Normalized > 0 && r.Normalized <= 1) {
			return 0, fmt.Errorf("train: normalized throughput %g outside (0, 1]", r.Normalized)
		}
		if r.IterTimeNS < r.ComputeTimeNS || r.ComputeTimeNS <= 0 {
			return 0, fmt.Errorf("train: iteration %d ns shorter than compute %d ns", r.IterTimeNS, r.ComputeTimeNS)
		}
		return float64(r.IterTimeNS) / float64(r.ComputeTimeNS), nil
	}
	return 0, fmt.Errorf("unexpected response %T", k.resp)
}

func objectiveValue(c server.PlanCandidate, turnaround bool) int64 {
	if turnaround {
		return c.TurnaroundNS
	}
	return c.TotalNS
}

// answer renders the fields the oracle requires to match exactly: every
// ranked candidate of a plan, a simulation's timing and shape, and a training
// iteration's times.
func answer(resp any) string {
	var b strings.Builder
	switch r := resp.(type) {
	case *server.PlanResponse:
		for _, c := range r.Candidates {
			fmt.Fprintf(&b, "%s total=%d turnaround=%d in_order=%v; ", c.Algorithm, c.TotalNS, c.TurnaroundNS, c.InOrder)
		}
	case *server.SimulateResponse:
		fmt.Fprintf(&b, "participants=%d chunks=%d total=%d turnaround=%d", r.Participants, r.Chunks, r.TotalNS, r.TurnaroundNS)
	case *server.TrainResponse:
		fmt.Fprintf(&b, "iter=%d compute=%d", r.IterTimeNS, r.ComputeTimeNS)
	}
	return b.String()
}

func planObjective(name string) autotune.Objective {
	if name == "turnaround" {
		return autotune.Turnaround
	}
	return autotune.Latency
}

var simulateAlgorithm = map[string]collective.Algorithm{
	"ring":             collective.AlgRing,
	"tree":             collective.AlgTree,
	"tree-overlap":     collective.AlgTreeOverlap,
	"double-tree":      collective.AlgDoubleTree,
	"ccube":            collective.AlgDoubleTreeOverlap,
	"halving-doubling": collective.AlgHalvingDoubling,
}

var trainModel = map[string]func() dnn.Model{
	"zfnet":     dnn.ZFNet,
	"vgg16":     dnn.VGG16,
	"resnet50":  dnn.ResNet50,
	"bert-base": dnn.BERTBase,
}

func simulateConfig(g *topology.Graph, r *server.SimulateRequest) collective.Config {
	return collective.Config{
		Graph:               g,
		Algorithm:           simulateAlgorithm[r.Algorithm],
		Bytes:               int64(r.Bytes),
		Chunks:              r.Chunks,
		AllowSharedChannels: r.AllowShared,
	}
}

func simulateResponse(g *topology.Graph, res *collective.Result) *server.SimulateResponse {
	return &server.SimulateResponse{
		Participants: g.NumNodes(),
		Chunks:       res.Partition.NumChunks(),
		TotalNS:      int64(res.Total),
		TurnaroundNS: int64(res.Turnaround),
	}
}

// runTrain runs one training iteration the way the /v1/train handler does.
func runTrain(ctx context.Context, g *topology.Graph, r *server.TrainRequest) (*server.TrainResponse, error) {
	cfg := train.Config{Model: trainModel[r.Model](), Batch: r.Batch, Graph: g, Chunks: r.Chunks, AllowSharedChannels: r.AllowShared}
	var res *train.Result
	var err error
	if r.Mode == "DDP" {
		res, err = train.RunBackwardOverlapCtx(ctx, cfg)
	} else {
		cfg.Mode = train.Mode(r.Mode)
		res, err = train.RunCtx(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	return &server.TrainResponse{IterTimeNS: int64(res.IterTime), ComputeTimeNS: int64(res.ComputeTime)}, nil
}

// recompute answers a request in-process on a graph the server never saw,
// through the public entry points, so no cache layer can hand back what the
// server served. Call it after collective.DefaultCache.Clear().
func recompute(ctx context.Context, req any) (string, error) {
	var topo string
	switch r := req.(type) {
	case *server.PlanRequest:
		topo = r.Topology
	case *server.SimulateRequest:
		topo = r.Topology
	case *server.TrainRequest:
		topo = r.Topology
	}
	g, err := buildTopology(topo)
	if err != nil {
		return "", err
	}
	switch r := req.(type) {
	case *server.PlanRequest:
		ranked, err := autotune.SelectWith(ctx, g, int64(r.Bytes), autotune.Options{
			Objective:      planObjective(r.Objective),
			RequireInOrder: r.RequireInOrder,
			AllowShared:    r.AllowShared,
			AllowSynth:     r.AllowSynth,
		})
		if err != nil {
			return "", err
		}
		resp := &server.PlanResponse{}
		for _, c := range ranked {
			resp.Candidates = append(resp.Candidates, server.PlanCandidate{
				Algorithm: c.Algorithm.String(), TotalNS: int64(c.Total), TurnaroundNS: int64(c.Turnaround), InOrder: c.InOrder,
			})
		}
		return answer(resp), nil
	case *server.SimulateRequest:
		cfg := simulateConfig(g, r)
		var res *collective.Result
		if r.Fault != "" {
			plan, err := fault.ParseSpec(g, r.Fault)
			if err != nil {
				return "", err
			}
			if res, _, err = fault.RunCollectiveCtx(ctx, cfg, plan); err != nil {
				return "", err
			}
		} else {
			s, err := collective.Build(cfg)
			if err != nil {
				return "", err
			}
			if err := s.Validate(); err != nil {
				return "", err
			}
			if res, err = s.ExecuteCtx(ctx); err != nil {
				return "", err
			}
		}
		return answer(simulateResponse(g, res)), nil
	case *server.TrainRequest:
		resp, err := runTrain(ctx, g, r)
		if err != nil {
			return "", err
		}
		return answer(resp), nil
	}
	return "", fmt.Errorf("unexpected request %T", req)
}
