package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccube/internal/collective"
	"ccube/internal/fault"
	"ccube/internal/server"
	"ccube/internal/synth"
	"ccube/internal/topology"
)

// span is one timed call into a layer during the traced replay (Pass B).
// Spans of one replayed request share Req, its window position.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a request's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Work is the unit count the call processed: transfers for build,
	// validate and execute, plan variants for synth, candidates for
	// autotune, rerouted transfers for fault.
	Work int `json:"work,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer records nested spans for one replay goroutine, in memory.
type tracer struct {
	base  time.Time
	req   int
	spans []span
	open  []int
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Req: t.req, ID: id, Parent: parent, Start: int64(time.Since(t.base))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id, work int) {
	t.spans[id].End = int64(time.Since(t.base))
	t.spans[id].Work = work
	t.open = t.open[:len(t.open)-1]
}

// autotuneOrder is the order in which autotune evaluates the built-ins.
var autotuneOrder = []collective.Algorithm{
	collective.AlgRing,
	collective.AlgHalvingDoubling,
	collective.AlgTree,
	collective.AlgTreeOverlap,
	collective.AlgDoubleTree,
	collective.AlgDoubleTreeOverlap,
}

// replayer re-runs served requests through the public functions the
// handler calls, in the handler's order, with a span around each call. It
// keeps shared graphs per topology name, as the server does.
type replayer struct {
	graphs graphSet
}

// replay answers one request and returns the answer to compare with what the
// server served. Every call into a layer runs inside a child span of the
// request's root span.
func (p *replayer) replay(ctx context.Context, tr *tracer, k *call) (string, error) {
	tr.req = k.pos
	root := tr.begin("request")
	defer tr.end(root, 0)

	id := tr.begin("server.decode")
	req, err := decodeRequest(k.path, k.body)
	tr.end(id, 0)
	if err != nil {
		return "", err
	}
	var resp any
	switch r := req.(type) {
	case *server.PlanRequest:
		resp, err = p.plan(ctx, tr, r)
	case *server.SimulateRequest:
		resp, err = p.simulate(ctx, tr, r)
	case *server.TrainRequest:
		var g *topology.Graph
		if g, err = p.shared(tr, r.Topology); err == nil {
			id := tr.begin("train.run")
			resp, err = runTrain(ctx, g, r)
			tr.end(id, 0)
		}
	}
	if err != nil {
		return "", err
	}

	// Encoding re-renders the served response, which the replayed one
	// equals when the oracle holds; the handler encodes plan and simulate
	// responses with AppendJSON and train responses with encoding/json.
	id = tr.begin("server.encode")
	switch r := k.resp.(type) {
	case *server.PlanResponse:
		r.AppendJSON(nil)
	case *server.SimulateResponse:
		r.AppendJSON(nil)
	default:
		_, err = json.Marshal(r)
	}
	tr.end(id, 0)
	return answer(resp), err
}

func (p *replayer) shared(tr *tracer, name string) (*topology.Graph, error) {
	return p.graphs.get(name, func(name string) (*topology.Graph, error) {
		return fresh(tr, name)
	})
}

func fresh(tr *tracer, name string) (*topology.Graph, error) {
	id := tr.begin("topology.build")
	defer tr.end(id, 0)
	return buildTopology(name)
}

// plan unrolls autotune.SelectWith: build, verify and execute every
// built-in, then compile and execute the synthesized schedule, then rank.
// Every call misses, as on a cold schedule cache.
func (p *replayer) plan(ctx context.Context, tr *tracer, r *server.PlanRequest) (any, error) {
	g, err := p.shared(tr, r.Topology)
	if err != nil {
		return nil, err
	}
	id := tr.begin("autotune.select")
	evaluated := 0
	resp := &server.PlanResponse{}
	for _, alg := range autotuneOrder {
		evaluated++
		res, err := buildValidateExecute(ctx, tr, collective.Config{
			Graph: g, Algorithm: alg, Bytes: int64(r.Bytes), AllowSharedChannels: r.AllowShared,
		})
		if err == nil && (!r.RequireInOrder || res.InOrder) {
			resp.Candidates = append(resp.Candidates, server.PlanCandidate{
				Algorithm: alg.String(), TotalNS: int64(res.Total), TurnaroundNS: int64(res.Turnaround), InOrder: res.InOrder,
			})
		}
	}
	if r.AllowSynth {
		evaluated++
		if c, err := synthesize(ctx, tr, g, int64(r.Bytes)); err == nil && (!r.RequireInOrder || c.InOrder) {
			resp.Candidates = append(resp.Candidates, c)
		}
	}
	turnaround := r.Objective == "turnaround"
	sort.SliceStable(resp.Candidates, func(a, b int) bool {
		return objectiveValue(resp.Candidates[a], turnaround) < objectiveValue(resp.Candidates[b], turnaround)
	})
	tr.end(id, evaluated)
	if len(resp.Candidates) == 0 {
		return nil, fmt.Errorf("no runnable algorithm on %s", r.Topology)
	}
	return resp, nil
}

func synthesize(ctx context.Context, tr *tracer, g *topology.Graph, bytes int64) (server.PlanCandidate, error) {
	id := tr.begin("synth.compile")
	res, err := synth.Synthesize(ctx, g, bytes, synth.Options{NoCache: true})
	variants := 0
	if err == nil {
		variants = res.Report.Variants
	}
	tr.end(id, variants)
	if err != nil {
		return server.PlanCandidate{}, err
	}
	id = tr.begin("des.execute")
	sim, err := res.Schedule.ExecuteCtx(ctx)
	tr.end(id, res.Schedule.NumTransfers())
	if err != nil {
		return server.PlanCandidate{}, err
	}
	return server.PlanCandidate{
		Algorithm: collective.AlgSynth.String(), TotalNS: int64(sim.Total), TurnaroundNS: int64(sim.Turnaround), InOrder: sim.InOrder,
	}, nil
}

func buildValidateExecute(ctx context.Context, tr *tracer, cfg collective.Config) (*collective.Result, error) {
	id := tr.begin("collective.build")
	s, err := collective.Build(cfg)
	transfers := 0
	if err == nil {
		transfers = s.NumTransfers()
	}
	tr.end(id, transfers)
	if err != nil {
		return nil, err
	}
	id = tr.begin("schedcheck.validate")
	err = s.Validate()
	tr.end(id, transfers)
	if err != nil {
		return nil, err
	}
	id = tr.begin("des.execute")
	res, err := s.ExecuteCtx(ctx)
	tr.end(id, transfers)
	return res, err
}

func (p *replayer) simulate(ctx context.Context, tr *tracer, r *server.SimulateRequest) (any, error) {
	if r.Fault == "" {
		g, err := p.shared(tr, r.Topology)
		if err != nil {
			return nil, err
		}
		res, err := buildValidateExecute(ctx, tr, simulateConfig(g, r))
		if err != nil {
			return nil, err
		}
		return simulateResponse(g, res), nil
	}
	// A fault plan mutates channel health, so the server builds a private
	// graph; so does the replay.
	g, err := fresh(tr, r.Topology)
	if err != nil {
		return nil, err
	}
	id := tr.begin("fault.run")
	var res *collective.Result
	var rep *fault.RunReport
	plan, err := fault.ParseSpec(g, r.Fault)
	if err == nil {
		res, rep, err = fault.RunCollectiveCtx(ctx, simulateConfig(g, r), plan)
	}
	rerouted := 0
	if rep != nil {
		rerouted = rep.Rerouted()
	}
	tr.end(id, rerouted)
	if err != nil {
		return nil, err
	}
	return simulateResponse(g, res), nil
}

// replayAll replays calls in order from `clients` goroutines until budget
// runs out, compares each answer with the served one, and returns the spans
// of every request that completed. A request started before the deadline
// runs to the end.
func replayAll(calls []*call, budget time.Duration) (spans []span, mismatches []string) {
	p := &replayer{}
	base := time.Now()
	deadline := base.Add(budget)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	tracers := make([]*tracer, clients)
	for c := range tracers {
		tracers[c] = &tracer{base: base}
		wg.Add(1)
		go func(tr *tracer) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				k := calls[i]
				got, err := p.replay(context.Background(), tr, k)
				want := answer(k.resp)
				if err != nil || got != want {
					mu.Lock()
					mismatches = append(mismatches, fmt.Sprintf("%s %s: replay %q err %v, served %q", k.path, k.body, got, err, want))
					mu.Unlock()
				}
			}
		}(tracers[c])
	}
	wg.Wait()
	for _, tr := range tracers {
		offset := len(spans)
		for _, s := range tr.spans {
			s.ID += offset
			if s.Parent >= 0 {
				s.Parent += offset
			}
			spans = append(spans, s)
		}
	}
	return spans, mismatches
}

// selfNS returns each span's self time: its duration minus its children's.
func selfNS(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// spanMetrics derives the per-layer metrics of the traced replay. A span's
// layer is its name up to the first dot; a request's root span is layer
// "request". A layer's share is its spans' self time over the summed
// duration of the replayed requests.
func spanMetrics(spans []span) map[string]float64 {
	self := make(map[string]float64) // ns, by layer
	total := make(map[string]float64)
	work := make(map[string]float64)
	calls := make(map[string]float64) // spans that reported work, by name
	requests := 0.0
	for i, ns := range selfNS(spans) {
		s := &spans[i]
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += float64(ns)
		total[s.Name] += float64(s.dur())
		if s.Work > 0 {
			work[s.Name] += float64(s.Work)
			calls[s.Name]++
		}
		if s.Parent < 0 {
			requests++
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	share := func(layer string) float64 { return ratio(self[layer], total["request"]) }
	perCall := func(name string) float64 { return ratio(work[name], calls[name]) }
	return map[string]float64{
		"server.codec_ms_per_req":           ratio(total["server.decode"]+total["server.encode"], requests) / 1e6,
		"autotune.candidates_per_req":       perCall("autotune.select"),
		"autotune.self_share":               share("autotune"),
		"collective.build_share":            share("collective"),
		"collective.transfers_per_schedule": perCall("collective.build"),
		"schedcheck.validate_share":         share("schedcheck"),
		"schedcheck.ns_per_transfer":        ratio(total["schedcheck.validate"], work["schedcheck.validate"]),
		"des.execute_share":                 share("des"),
		"synth.compile_share":               share("synth"),
		"synth.variants_per_compile":        perCall("synth.compile"),
		"train.run_share":                   share("train"),
		"fault.run_share":                   share("fault"),
		"topology.build_ms_total":           total["topology.build"] / 1e6,
		"trace.root_self_share":             share("request"),
	}
}

// spanSummary renders per-span-name call counts, median durations and
// self-time shares, for reading where a replayed request spends its time.
func spanSummary(spans []span) string {
	durs := make(map[string][]float64)
	self := make(map[string]float64)
	wall := 0.0
	for i, ns := range selfNS(spans) {
		s := &spans[i]
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		self[s.Name] += float64(ns)
		if s.Parent < 0 {
			wall += float64(s.dur())
		}
	}
	names := make([]string, 0, len(durs))
	for n := range durs {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	out := fmt.Sprintf("  %-20s %8s %12s %10s\n", "span", "calls", "p50_ms", "self_share")
	for _, n := range names {
		out += fmt.Sprintf("  %-20s %8d %12.4f %10.4f\n", n, len(durs[n]), median(durs[n]), self[n]/wall)
	}
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
