package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
)

// request is one generated API call: the endpoint path and the exact body
// bytes the server receives.
type request struct {
	path string
	body []byte
}

const (
	pathPlan     = "/v1/plan"
	pathSimulate = "/v1/simulate"
	pathTrain    = "/v1/train"
)

// workload is one seeded request stream. The closed loop walks the stream
// from index 0 and wraps around at its end, so a faster program never runs
// out of requests; each stream is long enough that a wrapped request has
// long left every cache.
type workload struct {
	name   string
	why    string
	length int
	// warmup is how many leading requests only warm the server up: about
	// 5% of what the program served in 10 s when the benchmark was added.
	// They count toward setup_s and toward no other metric.
	warmup   int
	generate func(r *rand.Rand, n int) []request
}

var workloads = []workload{
	{
		name:     "plan_unique",
		why:      "distinct /v1/plan keys: every request misses both caches, so autotune's six built, verified and simulated schedules carry the time",
		length:   8192,
		warmup:   130,
		generate: genPlanUnique,
	},
	{
		name:     "serve_zipf",
		why:      "Zipf s=1.1 over 4096 plan/simulate/train bodies: the only workload where the response cache, singleflight and faulted runs do the work",
		length:   32768,
		warmup:   750,
		generate: genServeZipf,
	},
	{
		name:     "simulate_scale",
		why:      "/v1/simulate on cluster:32/64 with random pinned chunks: new shapes force full builds and verification of 2k-8k transfer schedules",
		length:   4096,
		warmup:   65,
		generate: genSimulateScale,
	},
	{
		name:     "synth_irregular",
		why:      "/v1/plan with allow_synth on dgx1, fcasym:8 and rr:16 at distinct sizes: schedule synthesis runs here and nowhere else",
		length:   4096,
		warmup:   55,
		generate: genSynthIrregular,
	},
	{
		name:     "train_unique",
		why:      "distinct /v1/train iterations (Fig. 13 modes): schedule-cache hits leave the training pipeline graph and the DES to carry the time",
		length:   trainCombos,
		warmup:   600,
		generate: genTrainUnique,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// stream returns the workload's request stream for seed: the same seed gives
// byte-identical bodies.
func (w workload) stream(seed uint64) []request {
	return w.generate(newRand(seed, w.name), w.length)
}

// newRand derives an independent generator per (seed, purpose).
func newRand(seed uint64, purpose string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(purpose); i++ {
		h = (h ^ uint64(purpose[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// The bodies are rendered from the benchmark's own types, so the wire format
// stays fixed however the server's request types evolve.
type planBody struct {
	Topology    string `json:"topology"`
	Bytes       int64  `json:"bytes"`
	Objective   string `json:"objective"`
	AllowShared bool   `json:"allow_shared,omitempty"`
	AllowSynth  bool   `json:"allow_synth,omitempty"`
}

type simulateBody struct {
	Topology    string `json:"topology"`
	Algorithm   string `json:"algorithm"`
	Bytes       int64  `json:"bytes"`
	Chunks      int    `json:"chunks,omitempty"`
	AllowShared bool   `json:"allow_shared,omitempty"`
	Fault       string `json:"fault,omitempty"`
}

type trainBody struct {
	Topology string `json:"topology"`
	Model    string `json:"model"`
	Batch    int    `json:"batch"`
	Mode     string `json:"mode"`
}

func mustBody(path string, v any) request {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return request{path: path, body: b}
}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
)

// logUniform draws a size log-uniformly from [lo, hi], rounded down to a
// multiple of step.
func logUniform(r *rand.Rand, lo, hi, step int64) int64 {
	v := int64(math.Exp(math.Log(float64(lo)) + r.Float64()*(math.Log(float64(hi))-math.Log(float64(lo)))))
	v -= v % step
	return min(max(v, lo), hi)
}

// distinctSizes draws log-uniform sizes that never repeat: a size already
// taken moves up to the next free step, wrapping to lo past hi. The small
// octaves hold few steps, so plain rejection would skew the distribution.
type distinctSizes struct {
	lo, hi, step int64
	used         map[int64]bool
}

func newDistinctSizes(lo, hi, step int64) *distinctSizes {
	return &distinctSizes{lo: lo, hi: hi, step: step, used: make(map[int64]bool)}
}

func (d *distinctSizes) draw(r *rand.Rand) int64 {
	v := logUniform(r, d.lo, d.hi, d.step)
	for d.used[v] {
		if v += d.step; v > d.hi {
			v = d.lo
		}
	}
	d.used[v] = true
	return v
}

func objective(r *rand.Rand) string {
	if r.Float64() < 0.3 {
		return "turnaround"
	}
	return "latency"
}

func genPlanUnique(r *rand.Rand, n int) []request {
	topos := []string{"dgx1", "dgx1-low", "fc:8", "fc:16"}
	sizes := newDistinctSizes(64*kib, 256*mib, 4*kib)
	out := make([]request, n)
	for i := range out {
		out[i] = mustBody(pathPlan, planBody{
			Topology:    topos[r.IntN(len(topos))],
			Bytes:       sizes.draw(r),
			Objective:   objective(r),
			AllowShared: true,
		})
	}
	return out
}

var (
	simulateAlgorithms = []string{"ring", "tree", "tree-overlap", "double-tree", "ccube", "halving-doubling"}
	trainTopologies    = []string{"dgx1", "dgx1-low"}
	trainModels        = []string{"zfnet", "vgg16", "resnet50", "bert-base"}
	trainModes         = []string{"B", "C1", "C2", "R", "CC", "DDP"}
)

// serve_zipf universe: exactly zipfUniverse distinct bodies, split into
// per-endpoint key sets so the endpoint mix holds whatever the key skew.
const (
	zipfUniverse  = 4096
	zipfTrainKeys = 2 * 4 * 6 * 4 // topologies × models × modes × batches
	zipfPlanKeys  = 2100
	zipfSimKeys   = zipfUniverse - zipfPlanKeys - zipfTrainKeys
)

// zipfKeys returns the serve_zipf universe as three endpoint key sets, each
// in a seeded popularity order (index 0 is the hottest key).
func zipfKeys(r *rand.Rand) (plans, sims, trains []request) {
	topos := []string{"dgx1", "dgx1-low", "fc:8", "cluster:16"}
	seen := make(map[string]bool)
	add := func(dst *[]request, q request) {
		if k := q.path + string(q.body); !seen[k] {
			seen[k] = true
			*dst = append(*dst, q)
		}
	}
	for len(plans) < zipfPlanKeys {
		add(&plans, mustBody(pathPlan, planBody{
			Topology:    topos[r.IntN(len(topos))],
			Bytes:       logUniform(r, mib, 256*mib, 4*kib),
			Objective:   objective(r),
			AllowShared: true,
		}))
	}
	for len(sims) < zipfSimKeys {
		b := simulateBody{
			Topology:    topos[r.IntN(len(topos))],
			Algorithm:   simulateAlgorithms[r.IntN(len(simulateAlgorithms))],
			Bytes:       logUniform(r, mib, 256*mib, 4*kib),
			AllowShared: true,
		}
		if (b.Topology == "dgx1" || b.Topology == "dgx1-low") && r.IntN(7) < 2 {
			b.Fault = []string{"kill:2-3", "degrade:0-1x4"}[r.IntN(2)]
		}
		add(&sims, mustBody(pathSimulate, b))
	}
	for _, topo := range trainTopologies {
		for _, model := range trainModels {
			for _, mode := range trainModes {
				for _, batch := range []int{16, 32, 64, 128} {
					add(&trains, mustBody(pathTrain, trainBody{Topology: topo, Model: model, Batch: batch, Mode: mode}))
				}
			}
		}
	}
	for _, set := range [][]request{plans, sims, trains} {
		r.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	}
	return plans, sims, trains
}

func genServeZipf(r *rand.Rand, n int) []request {
	plans, sims, trains := zipfKeys(r)
	zipf := func(set []request) *rand.Zipf { return rand.NewZipf(r, 1.1, 1, uint64(len(set)-1)) }
	zp, zs, zt := zipf(plans), zipf(sims), zipf(trains)
	out := make([]request, n)
	for i := range out {
		switch u := r.Float64(); {
		case u < 0.45:
			out[i] = plans[zp.Uint64()]
		case u < 0.80:
			out[i] = sims[zs.Uint64()]
		default:
			out[i] = trains[zt.Uint64()]
		}
	}
	return out
}

func genSimulateScale(r *rand.Rand, n int) []request {
	topos := []string{"cluster:32", "cluster:64"}
	algs := []string{"ccube", "double-tree", "tree-overlap", "tree"}
	out := make([]request, n)
	for i := range out {
		out[i] = mustBody(pathSimulate, simulateBody{
			Topology:    topos[r.IntN(len(topos))],
			Algorithm:   algs[r.IntN(len(algs))],
			Bytes:       logUniform(r, 16*mib, 256*mib, 4*kib),
			Chunks:      8 + r.IntN(121),
			AllowShared: true,
		})
	}
	return out
}

func genSynthIrregular(r *rand.Rand, n int) []request {
	topos := []string{"dgx1", "fcasym:8", "rr:16"}
	sizes := newDistinctSizes(mib, 256*mib, 4*kib)
	out := make([]request, n)
	for i := range out {
		out[i] = mustBody(pathPlan, planBody{
			Topology:    topos[r.IntN(len(topos))],
			Bytes:       sizes.draw(r),
			Objective:   "latency",
			AllowShared: true,
			AllowSynth:  true,
		})
	}
	return out
}

// trainCombos is every (topology, model, mode, batch 1-512) iteration.
const trainCombos = 2 * 4 * 6 * 512

// genTrainUnique returns a seeded permutation of every training iteration,
// so no body repeats within one pass over the stream.
func genTrainUnique(r *rand.Rand, n int) []request {
	out := make([]request, 0, n)
	for _, i := range r.Perm(trainCombos)[:n] {
		out = append(out, mustBody(pathTrain, trainBody{
			Topology: trainTopologies[i%2],
			Model:    trainModels[i/2%4],
			Mode:     trainModes[i/8%6],
			Batch:    1 + i/48,
		}))
	}
	return out
}
