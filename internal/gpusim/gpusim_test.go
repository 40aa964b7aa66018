package gpusim

import (
	"math/rand"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

func randInputs(rng *rand.Rand, gpus, elems int) ([][]float32, []float32) {
	inputs := make([][]float32, gpus)
	want := make([]float32, elems)
	for g := range inputs {
		inputs[g] = make([]float32, elems)
		for j := range inputs[g] {
			inputs[g][j] = float32(rng.Intn(200) - 100)
			want[j] += inputs[g][j]
		}
	}
	return inputs, want
}

// fracInputs returns non-integer inputs, whose float32 sums depend on the
// accumulation order: the bit-identity tests need them.
func fracInputs(rng *rand.Rand, gpus, elems int) [][]float32 {
	inputs := make([][]float32, gpus)
	for g := range inputs {
		inputs[g] = make([]float32, elems)
		for j := range inputs[g] {
			inputs[g][j] = rng.Float32()*2 - 1
		}
	}
	return inputs
}

func checkSum(t *testing.T, res *Result, want []float32) {
	t.Helper()
	for g, buf := range res.Buffers {
		for j := range buf {
			if buf[j] != want[j] {
				t.Fatalf("GPU %d elem %d = %v, want %v", g, j, buf[j], want[j])
			}
		}
	}
}

func checkBitIdentical(t *testing.T, a, b *Result, what string) {
	t.Helper()
	for g := range a.Buffers {
		for j := range a.Buffers[g] {
			if a.Buffers[g][j] != b.Buffers[g][j] {
				t.Fatalf("GPU %d elem %d differs between %s", g, j, what)
			}
		}
	}
}

func dgx1() *topology.Graph { return topology.DGX1(topology.DefaultDGX1Config()) }

func fc(p int) *topology.Graph { return topology.FullyConnected(p, 25e9, des.Microsecond) }

// build builds and verifies cfg's schedule.
func build(t *testing.T, cfg collective.Config) *collective.Schedule {
	t.Helper()
	if cfg.Bytes == 0 {
		cfg.Bytes = 1 << 20
	}
	s, err := collective.Build(cfg)
	if err != nil {
		t.Fatalf("%v: %v", cfg.Algorithm, err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("%v: %v", cfg.Algorithm, err)
	}
	return s
}

// dgx1Program returns the verified double tree on the DGX-1: C-Cube's
// overlapped trees, or the baseline with a reduction barrier.
func dgx1Program(t *testing.T, g *topology.Graph, chunks int, overlap bool) *schedcheck.Program {
	alg := collective.AlgDoubleTree
	if overlap {
		alg = collective.AlgDoubleTreeOverlap
	}
	return build(t, collective.Config{Graph: g, Algorithm: alg, Chunks: chunks}).Program()
}

func runSum(t *testing.T, p *schedcheck.Program, inputs [][]float32, want []float32) *Result {
	t.Helper()
	res, err := Run(p, inputs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, res, want)
	return res
}

func TestTreeAllReduceCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, overlap := range []bool{false, true} {
		for _, chunks := range []int{2, 7, 32} {
			inputs, want := randInputs(rng, 8, 1000)
			runSum(t, dgx1Program(t, dgx1(), chunks, overlap), inputs, want)
		}
	}
}

func TestSingleTreeAllReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, alg := range []collective.Algorithm{collective.AlgTree, collective.AlgTreeOverlap} {
		inputs, want := randInputs(rng, 8, 512)
		runSum(t, build(t, collective.Config{Graph: dgx1(), Algorithm: alg, Chunks: 16}).Program(), inputs, want)
	}
}

func TestGenericTreesVariousSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	algs := []collective.Algorithm{collective.AlgTree, collective.AlgTreeOverlap,
		collective.AlgDoubleTree, collective.AlgDoubleTreeOverlap}
	for p := 2; p <= 16; p++ {
		for _, alg := range algs {
			inputs, want := randInputs(rng, p, 300)
			s := build(t, collective.Config{Graph: fc(p), Algorithm: alg, Chunks: 10, AllowSharedChannels: true})
			runSum(t, s.Program(), inputs, want)
		}
	}
}

func TestPerTreeInOrderArrival(t *testing.T) {
	// Observation #3: each GPU must see each tree's chunks in increasing
	// order. Tree 0 owns even chunks, tree 1 odd chunks.
	rng := rand.New(rand.NewSource(4))
	inputs, _ := randInputs(rng, 8, 2048)
	res, err := Run(dgx1Program(t, dgx1(), 32, true), inputs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for g, order := range res.ArrivalOrder {
		if len(order) != 32 {
			t.Fatalf("GPU %d enqueued %d chunks, want 32", g, len(order))
		}
		last := [2]int{-1, -1}
		for _, c := range order {
			if c < last[c%2] {
				t.Fatalf("GPU %d: tree-%d chunk %d after %d", g, c%2, c, last[c%2])
			}
			last[c%2] = c
		}
	}
}

// checkLayerChaining asserts every GPU dequeued every layer in order, each
// with fully reduced gradients at dequeue time.
func checkLayerChaining(t *testing.T, res *Result, fullyReduced [][]bool, layers int) {
	t.Helper()
	for g, order := range res.DequeueOrder {
		if len(order) != layers {
			t.Fatalf("GPU %d dequeued %d layers, want %d", g, len(order), layers)
		}
		for i, l := range order {
			if l != i {
				t.Fatalf("GPU %d dequeue order %v", g, order)
			}
			if !fullyReduced[g][l] {
				t.Fatalf("GPU %d layer %d gradients not fully reduced at dequeue", g, l)
			}
		}
	}
}

// layerConfig enables gradient queuing and records, per GPU and layer,
// whether the gradients were the global sums when OnLayer fired. Each GPU's
// callbacks run on its own compute kernel, so the per-GPU rows need no lock.
func layerConfig(gpus int, layerElems []int, want []float32) (Config, [][]bool) {
	offsets := make([]int, len(layerElems)+1)
	for i, e := range layerElems {
		offsets[i+1] = offsets[i] + e
	}
	seen := make([][]bool, gpus)
	for g := range seen {
		seen[g] = make([]bool, len(layerElems))
	}
	return Config{
		LayerElems: layerElems,
		OnLayer: func(gpu, layer int, grad []float32) {
			good := true
			for j := range grad {
				good = good && grad[j] == want[offsets[layer]+j]
			}
			seen[gpu][layer] = good
		},
	}, seen
}

func TestGradientQueueChaining(t *testing.T) {
	// Layers dequeue strictly in order on every GPU, and each layer's
	// gradients are already the global sums when OnLayer fires.
	rng := rand.New(rand.NewSource(5))
	layerElems := []int{100, 200, 300, 400}
	inputs, want := randInputs(rng, 8, 1000)
	cfg, seen := layerConfig(8, layerElems, want)
	res, err := Run(dgx1Program(t, dgx1(), 16, true), inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, res, want)
	checkLayerChaining(t, res, seen, len(layerElems))
}

func TestBaselineVsOverlapSameResult(t *testing.T) {
	// Tree reduction order is identical, so results are bit-identical even
	// on data whose float32 sums depend on the order — the basis of the
	// paper's "no impact on accuracy" claim.
	rng := rand.New(rand.NewSource(6))
	for _, chunks := range []int{2, 8, 9, 32} {
		inputs := fracInputs(rng, 8, 777)
		base, err := Run(dgx1Program(t, dgx1(), chunks, false), inputs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		over, err := Run(dgx1Program(t, dgx1(), chunks, true), inputs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkBitIdentical(t, base, over, "baseline and overlap")
	}
}

func TestRingAllReduceCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{2, 4, 8, 13} {
		inputs, want := randInputs(rng, p, 500)
		runSum(t, build(t, collective.Config{Graph: fc(p), Algorithm: collective.AlgRing}).Program(), inputs, want)
	}
}

func TestRingArrivalOrderDiffersPerGPU(t *testing.T) {
	// The ring's first completed chunk differs per GPU (chunk (i+1) mod P at
	// GPU i) — the property that prevents gradient queuing on ring.
	rng := rand.New(rand.NewSource(8))
	inputs, _ := randInputs(rng, 8, 256)
	res, err := Run(build(t, collective.Config{Graph: fc(8), Algorithm: collective.AlgRing}).Program(), inputs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	firsts := make(map[int]bool)
	for g, order := range res.ArrivalOrder {
		if len(order) != 8 {
			t.Fatalf("GPU %d arrival count %d, want 8", g, len(order))
		}
		if order[0] != (g+1)%8 {
			t.Fatalf("GPU %d first chunk %d, want %d", g, order[0], (g+1)%8)
		}
		firsts[order[0]] = true
	}
	if len(firsts) != 8 {
		t.Fatalf("first-chunk set has %d distinct values, want 8", len(firsts))
	}
}

func TestConfigValidation(t *testing.T) {
	p := dgx1Program(t, dgx1(), 4, true)
	inputs := func(gpus, elems int) [][]float32 {
		out := make([][]float32, gpus)
		for g := range out {
			out[g] = make([]float32, elems)
		}
		return out
	}
	mismatched := inputs(8, 10)
	mismatched[3] = make([]float32, 9)
	forward := p.Clone()
	forward.Ops[0].Deps = []int{1}
	bcast, err := collective.BuildPrimitive(collective.PrimitiveConfig{
		Graph: dgx1(), Primitive: collective.PrimBroadcast, Bytes: 1 << 20, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		p      *schedcheck.Program
		inputs [][]float32
		cfg    Config
	}{
		{"nil program", nil, inputs(8, 10), Config{}},
		{"too few inputs", p, inputs(2, 10), Config{}},
		{"mismatched lengths", p, mismatched, Config{}},
		{"too few elements for the chunks", p, inputs(8, 3), Config{}},
		{"forward dependency", forward, inputs(8, 10), Config{}},
		{"queuing without the AllReduce contract", bcast.Program(), inputs(8, 10), Config{LayerElems: []int{10}}},
	}
	for _, c := range cases {
		if _, err := Run(c.p, c.inputs, c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestLayerElemsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	inputs, _ := randInputs(rng, 8, 100)
	p := dgx1Program(t, dgx1(), 4, true)
	for _, layers := range [][]int{{50, 40}, {110, -10}} {
		if _, err := Run(p, inputs, Config{LayerElems: layers}); err == nil {
			t.Fatalf("layer elements %v accepted for 100 inputs", layers)
		}
	}
}

func TestPropertyRandomConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 20; iter++ {
		p := []int{2, 4, 8, 16, 32}[rng.Intn(5)]
		alg := collective.Algorithm(rng.Intn(6))
		chunks := rng.Intn(30) + 2
		elems := 32 + chunks + rng.Intn(2000)
		inputs, want := randInputs(rng, p, elems)
		s := build(t, collective.Config{Graph: fc(p), Algorithm: alg, Chunks: chunks, AllowSharedChannels: true})
		res, err := Run(s.Program(), inputs, Config{})
		if err != nil {
			t.Fatalf("iter %d (p=%d %v chunks=%d elems=%d): %v", iter, p, alg, chunks, elems, err)
		}
		checkSum(t, res, want)
	}
}
