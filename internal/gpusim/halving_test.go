package gpusim

import (
	"math/rand"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/schedcheck"
)

func halvingDoubling(t *testing.T, p int) *schedcheck.Program {
	t.Helper()
	return build(t, collective.Config{Graph: fc(p), Algorithm: collective.AlgHalvingDoubling}).Program()
}

func TestHalvingDoublingEmulationCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, p := range []int{2, 4, 8, 16, 32} {
		inputs, want := randInputs(rng, p, 777)
		runSum(t, halvingDoubling(t, p), inputs, want)
	}
}

func TestHalvingDoublingEmulationRejectsNonPowerOfTwo(t *testing.T) {
	// There is no halving-doubling program for 6 GPUs: collective refuses to
	// build one, and Run refuses to stretch the 8-GPU one over 6 inputs.
	if _, err := collective.Build(collective.Config{Graph: fc(6), Algorithm: collective.AlgHalvingDoubling, Bytes: 1 << 20}); err == nil {
		t.Fatal("P=6 schedule built")
	}
	inputs := make([][]float32, 6)
	for i := range inputs {
		inputs[i] = make([]float32, 64)
	}
	if _, err := Run(halvingDoubling(t, 8), inputs, Config{}); err == nil {
		t.Fatal("8-GPU program ran on 6 inputs")
	}
}

func TestHalvingDoublingEmulationFirstChunkIsOwn(t *testing.T) {
	// After reduce-scatter, rank r completes its own subcube chunk first —
	// a different chunk per rank (not in-order; no gradient queuing).
	rng := rand.New(rand.NewSource(82))
	inputs, _ := randInputs(rng, 8, 256)
	res, err := Run(halvingDoubling(t, 8), inputs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for r, order := range res.ArrivalOrder {
		if len(order) != 8 {
			t.Fatalf("rank %d arrivals = %d, want 8", r, len(order))
		}
		if order[0] != r {
			t.Fatalf("rank %d first chunk = %d, want own chunk %d", r, order[0], r)
		}
	}
}

func TestHalvingDoublingEmulationMatchesTreeResult(t *testing.T) {
	// All algorithms compute the same sums (fp32 addition order differs, so
	// use integer-valued data for exact equality).
	rng := rand.New(rand.NewSource(83))
	inputs, want := randInputs(rng, 8, 512)
	runSum(t, halvingDoubling(t, 8), inputs, want)
	for _, alg := range []collective.Algorithm{collective.AlgRing, collective.AlgDoubleTreeOverlap} {
		s := build(t, collective.Config{Graph: fc(8), Algorithm: alg, Chunks: 8, AllowSharedChannels: true})
		runSum(t, s.Program(), inputs, want)
	}
}
