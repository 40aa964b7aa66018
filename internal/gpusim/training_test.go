package gpusim

import (
	"math/rand"
	"testing"

	"ccube/internal/dnn"
)

// trainMLP trains 8 data-parallel replicas of a small MLP through the
// persistent-kernel AllReduce emulation, applying SGD per layer in gradient
// queue dequeue order, and returns replica 0 (all replicas stay identical).
func trainMLP(t *testing.T, overlap bool, iterations int) *dnn.MLP {
	t.Helper()
	const gpus = 8
	const shard = 8
	rng := rand.New(rand.NewSource(4))
	xs := make([][][]float32, gpus)
	ys := make([][][]float32, gpus)
	for g := 0; g < gpus; g++ {
		for s := 0; s < shard; s++ {
			a, b := rng.Float32()-0.5, rng.Float32()-0.5
			xs[g] = append(xs[g], []float32{a, b})
			ys[g] = append(ys[g], []float32{a + 0.5*b})
		}
	}
	replicas := make([]*dnn.MLP, gpus)
	for g := range replicas {
		replicas[g] = dnn.NewMLP([]int{2, 8, 1}, 3)
	}
	prog := dgx1Program(t, dgx1(), 6, overlap)
	cfg := Config{
		LayerElems: replicas[0].LayerElems(),
		OnLayer: func(gpu, layer int, grad []float32) {
			replicas[gpu].ApplyLayer(layer, grad, 0.15, 1.0/float32(gpus*shard))
		},
	}
	for iter := 0; iter < iterations; iter++ {
		grads := make([][]float32, gpus)
		for g := 0; g < gpus; g++ {
			grads[g] = replicas[g].GradBuffer(xs[g], ys[g])
		}
		if _, err := Run(prog, grads, cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Data parallelism invariant: every replica holds identical weights.
	for g := 1; g < gpus; g++ {
		if !replicas[0].WeightsEqual(replicas[g]) {
			t.Fatalf("replica %d diverged from replica 0", g)
		}
	}
	return replicas[0]
}

func TestDataParallelTrainingBitIdenticalAcrossModes(t *testing.T) {
	// The paper's accuracy claim, end to end with real arithmetic: C-Cube
	// (overlap + gradient queuing) changes only the schedule, never the
	// order of any reduction or update, so its trained weights are
	// bit-identical to the non-overlapped tree baseline's.
	baseline := trainMLP(t, false, 25)
	ccube := trainMLP(t, true, 25)
	if !baseline.WeightsEqual(ccube) {
		t.Fatal("C-Cube training diverged from baseline tree training")
	}
}

func TestDataParallelTrainingConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs, ys [][]float32
	for s := 0; s < 64; s++ {
		a, b := rng.Float32()-0.5, rng.Float32()-0.5
		xs = append(xs, []float32{a, b})
		ys = append(ys, []float32{a + 0.5*b})
	}
	fresh := dnn.NewMLP([]int{2, 8, 1}, 3)
	before := fresh.Loss(xs, ys)
	trained := trainMLP(t, true, 400)
	after := trained.Loss(xs, ys)
	if after >= before/2 {
		t.Fatalf("loss %.6f -> %.6f, want clear reduction", before, after)
	}
}
