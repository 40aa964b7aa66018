package gpusim

import (
	"math/rand"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/schedcheck"
	"ccube/internal/topology"
)

// hierarchical returns the verified multi-box C-Cube composition (chained)
// or its phase-barriered baseline.
func hierarchical(t *testing.T, boxes, chunks int, chained bool) *schedcheck.Program {
	t.Helper()
	return hierSchedule(t, boxes, chunks, chained).Program()
}

func hierSchedule(t *testing.T, boxes, chunks int, chained bool) *collective.Schedule {
	t.Helper()
	mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(boxes))
	if err != nil {
		t.Fatal(err)
	}
	s, err := collective.BuildHierarchical(collective.HierarchicalConfig{
		Cluster: mn, Bytes: 1 << 20, Chunks: chunks, Chained: chained})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHierarchicalEmulationCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, boxes := range []int{2, 3, 4} {
		for _, chained := range []bool{false, true} {
			inputs, want := randInputs(rng, boxes*8, 600)
			runSum(t, hierarchical(t, boxes, 8, chained), inputs, want)
		}
	}
}

func TestHierarchicalEmulationInOrderArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	inputs, _ := randInputs(rng, 16, 512)
	res, err := Run(hierarchical(t, 2, 16, true), inputs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for g, order := range res.ArrivalOrder {
		if len(order) != 16 {
			t.Fatalf("GPU %d arrivals = %d, want 16", g, len(order))
		}
		for c := 1; c < len(order); c++ {
			if order[c] != order[c-1]+1 {
				t.Fatalf("GPU %d arrivals out of order: %v", g, order)
			}
		}
	}
}

func TestHierarchicalEmulationMatchesFlat(t *testing.T) {
	// The hierarchical composition must compute the same sums as a flat
	// AllReduce over all GPUs. The reduction orders differ, so use values
	// whose sums are exact in fp32: small integers.
	rng := rand.New(rand.NewSource(93))
	inputs, want := randInputs(rng, 16, 400)
	runSum(t, hierarchical(t, 2, 4, true), inputs, want)
}

func TestHierarchicalEmulationValidation(t *testing.T) {
	inputs := make([][]float32, 16)
	for i := range inputs {
		inputs[i] = make([]float32, 32)
	}
	bad := []*schedcheck.Program{
		hierarchical(t, 3, 4, true),  // 16 inputs for 24 GPUs
		hierarchical(t, 2, 64, true), // more chunks than elements
	}
	for i, p := range bad {
		if _, err := Run(p, inputs, Config{}); err == nil {
			t.Errorf("bad run %d accepted", i)
		}
	}
}

func TestHierarchicalEmulationBaselineSameResultAsChained(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	inputs := fracInputs(rng, 24, 333)
	base, err := Run(hierarchical(t, 3, 7, false), inputs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	chained, err := Run(hierarchical(t, 3, 7, true), inputs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	checkBitIdentical(t, base, chained, "barriered and chained")
}

func TestHierarchicalGradientQueueChaining(t *testing.T) {
	// Gradient queuing across the whole cluster: every GPU dequeues layers
	// in order, each with fully reduced gradients, while the three-level
	// collective is still in flight.
	rng := rand.New(rand.NewSource(95))
	layerElems := []int{50, 150, 300}
	inputs, want := randInputs(rng, 16, 500)
	cfg, seen := layerConfig(16, layerElems, want)
	res, err := Run(hierarchical(t, 2, 10, true), inputs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkSum(t, res, want)
	checkLayerChaining(t, res, seen, len(layerElems))
}

func TestHierarchicalLayerElemsValidation(t *testing.T) {
	inputs := make([][]float32, 16)
	for i := range inputs {
		inputs[i] = make([]float32, 100)
	}
	if _, err := Run(hierarchical(t, 2, 4, true), inputs, Config{LayerElems: []int{30, 30}}); err == nil {
		t.Fatal("mismatched layer elements accepted")
	}
}
