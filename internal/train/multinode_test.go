package train

import (
	"context"
	"testing"

	"ccube/internal/dnn"
	"ccube/internal/topology"
)

func testCluster(t *testing.T, boxes int) *topology.MultiNode {
	t.Helper()
	mn, err := topology.BuildMultiNode(topology.DefaultMultiNodeConfig(boxes))
	if err != nil {
		t.Fatal(err)
	}
	return mn
}

func TestMultiNodeTrainingModes(t *testing.T) {
	mn := testCluster(t, 4)
	results := map[Mode]*Result{}
	for _, m := range []Mode{ModeB, ModeC1, ModeC2, ModeCC} {
		res, err := RunCtx(context.Background(), Config{Model: dnn.ResNet50(), Batch: 64, Cluster: mn, Mode: m})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(res.PerGPU) != 32 {
			t.Fatalf("%s: %d per-GPU results, want 32", m, len(res.PerGPU))
		}
		results[m] = res
	}
	// Hierarchical chaining must pay off: CC < C2 < B (C2 chains forward on
	// a barriered hierarchy; CC chains the hierarchy itself too).
	if results[ModeCC].IterTime >= results[ModeB].IterTime {
		t.Errorf("CC %v >= B %v", results[ModeCC].IterTime, results[ModeB].IterTime)
	}
	if results[ModeC1].IterTime >= results[ModeB].IterTime {
		t.Errorf("C1 %v >= B %v", results[ModeC1].IterTime, results[ModeB].IterTime)
	}
	if results[ModeCC].IterTime > results[ModeC1].IterTime {
		t.Errorf("CC %v > C1 %v", results[ModeCC].IterTime, results[ModeC1].IterTime)
	}
}

func TestMultiNodeRingUnsupported(t *testing.T) {
	mn := testCluster(t, 2)
	if _, err := RunCtx(context.Background(), Config{Model: dnn.ZFNet(), Batch: 16, Cluster: mn, Mode: ModeR}); err == nil {
		t.Fatal("ring on a cluster accepted")
	}
}

func TestMultiNodeGraphMismatchRejected(t *testing.T) {
	mn := testCluster(t, 2)
	other := topology.DGX1(topology.DefaultDGX1Config())
	if _, err := RunCtx(context.Background(), Config{Model: dnn.ZFNet(), Batch: 16, Cluster: mn, Graph: other, Mode: ModeB}); err == nil {
		t.Fatal("mismatched Graph/Cluster accepted")
	}
}

func TestMultiNodeDetourTaxAppliesPerBox(t *testing.T) {
	// Every box has its own detour forwarders (GPU0, GPU1 locally); their
	// forward passes carry the SM tax.
	mn := testCluster(t, 2)
	res, err := RunCtx(context.Background(), Config{Model: dnn.ResNet50(), Batch: 64, Cluster: mn, Mode: ModeCC})
	if err != nil {
		t.Fatal(err)
	}
	// GPUs 0,1 (box 0) and 8,9 (box 1) are detour forwarders.
	for _, pair := range [][2]int{{0, 2}, {8, 10}} {
		if res.PerGPU[pair[0]] <= res.PerGPU[pair[1]] {
			t.Errorf("detour GPU %d (%v) not slower than GPU %d (%v)",
				pair[0], res.PerGPU[pair[0]], pair[1], res.PerGPU[pair[1]])
		}
	}
}

func TestMultiNodePipeline(t *testing.T) {
	mn := testCluster(t, 2)
	cfg := Config{Model: dnn.VGG16(), Batch: 32, Cluster: mn, Mode: ModeCC}
	single, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := RunPipeline(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	diff := float64(pipe.SteadyCycle()-single.IterTime) / float64(single.IterTime)
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.01 {
		t.Errorf("multi-node steady cycle %v vs single %v (%.2f%%)",
			pipe.SteadyCycle(), single.IterTime, diff*100)
	}
}
