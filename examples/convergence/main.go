// Convergence neutrality: the paper's accuracy claim, demonstrated with
// real arithmetic instead of a simulator. An MLP is trained data-parallel
// across 8 emulated GPUs; gradients are aggregated by running the DGX-1
// double-tree schedule on the goroutine interpreter (persistent kernels +
// device-side semaphores), with updates applied layer by layer in
// gradient-queue dequeue order. Because C-Cube changes only *when*
// communication happens — never the order of any reduction or update — the
// baseline tree and the fully chained C-Cube produce bit-identical weights.
//
//	go run ./examples/convergence
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ccube/internal/collective"
	"ccube/internal/dnn"
	"ccube/internal/gpusim"
	"ccube/internal/topology"
)

const (
	gpus       = 8
	shardSize  = 16 // samples per GPU
	iterations = 60
	lr         = 0.05
)

func main() {
	// A regression task: learn y = sin-ish nonlinear mix of two inputs.
	rng := rand.New(rand.NewSource(99))
	xs := make([][][]float32, gpus) // per GPU shard
	ys := make([][][]float32, gpus)
	for g := 0; g < gpus; g++ {
		xs[g] = make([][]float32, shardSize)
		ys[g] = make([][]float32, shardSize)
		for s := 0; s < shardSize; s++ {
			a, b := rng.Float32()-0.5, rng.Float32()-0.5
			xs[g][s] = []float32{a, b}
			ys[g][s] = []float32{a*b + 0.5*a - 0.25*b}
		}
	}

	baseline := trainRun(xs, ys, false)
	ccube := trainRun(xs, ys, true)

	fmt.Printf("loss after %d iterations (summed over all shards):\n", iterations)
	fmt.Printf("  baseline tree: %.6f\n", totalLoss(baseline, xs, ys))
	fmt.Printf("  C-Cube:        %.6f\n", totalLoss(ccube, xs, ys))
	if baseline.WeightsEqual(ccube) {
		fmt.Println("weights: bit-identical — chaining has no effect on training results")
	} else {
		fmt.Println("weights: DIFFER — this would be a bug")
	}
}

// trainRun trains one replica's view of the model. All GPUs hold identical
// weights throughout (data parallelism), so replica 0's weights are the
// result.
func trainRun(xs, ys [][][]float32, overlap bool) *dnn.MLP {
	replicas := make([]*dnn.MLP, gpus)
	for g := range replicas {
		replicas[g] = dnn.NewMLP([]int{2, 16, 8, 1}, 7) // same seed: same init
	}
	alg := collective.AlgDoubleTree
	if overlap {
		alg = collective.AlgDoubleTreeOverlap
	}
	s, err := collective.Build(collective.Config{
		Graph: topology.DGX1(topology.DefaultDGX1Config()), Algorithm: alg, Bytes: 1 << 20, Chunks: 8})
	if err != nil {
		log.Fatal(err)
	}
	prog := s.Program()
	cfg := gpusim.Config{
		LayerElems: replicas[0].LayerElems(),
		OnLayer: func(gpu, layer int, grad []float32) {
			replicas[gpu].ApplyLayer(layer, grad, lr, 1.0/float32(gpus*shardSize))
		},
	}

	for iter := 0; iter < iterations; iter++ {
		// Local backward pass per GPU.
		grads := make([][]float32, gpus)
		for g := 0; g < gpus; g++ {
			grads[g] = replicas[g].GradBuffer(xs[g], ys[g])
		}
		// One-shot AllReduce through the persistent-kernel emulation, with
		// gradient queuing driving per-layer SGD updates in dequeue order.
		if _, err := gpusim.Run(prog, grads, cfg); err != nil {
			log.Fatal(err)
		}
	}
	return replicas[0]
}

func totalLoss(m *dnn.MLP, xs, ys [][][]float32) float64 {
	var loss float64
	for g := range xs {
		loss += m.Loss(xs[g], ys[g])
	}
	return loss
}
