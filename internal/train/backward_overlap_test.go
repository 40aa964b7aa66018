package train

import (
	"context"
	"testing"

	"ccube/internal/dnn"
)

func TestMakeBuckets(t *testing.T) {
	// Layers of 10MB each, 25MB buckets: backward order fills buckets from
	// the last layer.
	mb := int64(10 << 20)
	layers := []int64{mb, mb, mb, mb, mb} // 50MB total
	buckets := makeBuckets(layers, DefaultBucketBytes)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(buckets))
	}
	// First bucket: layers 4,3,2 (30MB >= 25MB); second: layers 1,0.
	if buckets[0].firstLayer != 2 || buckets[0].lastLayer != 4 {
		t.Errorf("bucket 0 spans [%d,%d], want [2,4]", buckets[0].firstLayer, buckets[0].lastLayer)
	}
	if buckets[1].firstLayer != 0 || buckets[1].lastLayer != 1 {
		t.Errorf("bucket 1 spans [%d,%d], want [0,1]", buckets[1].firstLayer, buckets[1].lastLayer)
	}
	var total int64
	for _, b := range buckets {
		total += b.bytes
	}
	if total != 5*mb {
		t.Errorf("bucket bytes sum %d, want %d", total, 5*mb)
	}
}

func TestMakeBucketsSingleSmallModel(t *testing.T) {
	buckets := makeBuckets([]int64{100, 200}, DefaultBucketBytes)
	if len(buckets) != 1 {
		t.Fatalf("buckets = %d, want 1", len(buckets))
	}
	if buckets[0].firstLayer != 0 || buckets[0].lastLayer != 1 {
		t.Fatalf("bucket spans [%d,%d]", buckets[0].firstLayer, buckets[0].lastLayer)
	}
}

func TestBackwardOverlapRuns(t *testing.T) {
	res, err := RunBackwardOverlapCtx(context.Background(), Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeDDP {
		t.Fatalf("mode = %s", res.Mode)
	}
	if res.IterTime <= res.ComputeTime {
		t.Fatalf("iteration %v <= compute %v", res.IterTime, res.ComputeTime)
	}
	if NumBuckets(dnn.ResNet50()) < 3 {
		t.Fatalf("ResNet-50 buckets = %d, want several", NumBuckets(dnn.ResNet50()))
	}
}

func TestBackwardOverlapBeatsNoOverlapButLosesToCC(t *testing.T) {
	// The paper's positioning (Fig. 2, footnote 8): bucketed backward
	// overlap helps over a fully exposed ring, but C-Cube's one-shot plus
	// forward chaining beats it — on their system DDP-style overlap gave no
	// significant improvement.
	model := dnn.VGG16()
	g := lowBW()
	ddp, err := RunBackwardOverlapCtx(context.Background(), Config{Model: model, Batch: 32, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	ring := run(t, Config{Model: model, Batch: 32, Graph: g, Mode: ModeR})
	cc := run(t, Config{Model: model, Batch: 32, Graph: g, Mode: ModeCC})
	if ddp.IterTime >= ring.IterTime {
		t.Errorf("DDP %v >= exposed ring %v (overlap should help some)", ddp.IterTime, ring.IterTime)
	}
	if cc.IterTime >= ddp.IterTime {
		t.Errorf("CC %v >= DDP %v (paper: C-Cube wins)", cc.IterTime, ddp.IterTime)
	}
}

func TestBackwardOverlapValidation(t *testing.T) {
	if _, err := RunBackwardOverlapCtx(context.Background(), Config{Model: dnn.Model{}, Batch: 1, Graph: dgx1()}); err == nil {
		t.Error("empty model accepted")
	}
	if _, err := RunBackwardOverlapCtx(context.Background(), Config{Model: dnn.ZFNet(), Batch: 0, Graph: dgx1()}); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := RunBackwardOverlapCtx(context.Background(), Config{Model: dnn.ZFNet(), Batch: 1}); err == nil {
		t.Error("nil graph accepted")
	}
}
