package train

import (
	"context"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/fault"
	"ccube/internal/topology"
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

// ddpIterTimes pins RunBackwardOverlapCtx's iteration time at batch 64 for
// every model on both DGX-1 fabrics, as it was when each bucket's ring
// schedule was built per request without verification. Verified, cached
// bucket schedules time identically.
var ddpIterTimes = map[string]map[string]des.Time{
	"dgx1":     {"zfnet": 69322556, "vgg16": 912387206, "resnet50": 228285746, "bert-base": 660995898},
	"dgx1-low": {"zfnet": 70887672, "vgg16": 912620446, "resnet50": 230111318, "bert-base": 673984426},
}

func TestBackwardOverlapIterTimesUnchanged(t *testing.T) {
	graphs := map[string]*topology.Graph{"dgx1": dgx1(), "dgx1-low": lowBW()}
	for gname, g := range graphs {
		for _, m := range []dnn.Model{dnn.ZFNet(), dnn.VGG16(), dnn.ResNet50(), dnn.BERTBase()} {
			res, err := RunBackwardOverlapCtx(context.Background(), Config{Model: m, Batch: 64, Graph: g})
			if err != nil {
				t.Fatal(err)
			}
			if want := ddpIterTimes[gname][m.Name]; res.IterTime != want {
				t.Errorf("%s/%s: DDP iteration %d ns, want %d", gname, m.Name, res.IterTime, want)
			}
		}
	}
}

// TestBackwardOverlapSharesCachedBuckets: bucket schedules come from the
// schedule cache, verified once. A second iteration of the model, at
// another batch size, asks for the same buckets and builds and checks
// nothing: every lookup hits.
func TestBackwardOverlapSharesCachedBuckets(t *testing.T) {
	g := dgx1() // a fresh graph: its keys are new to the cache
	model := dnn.ResNet50()
	_, cold := collective.DefaultCache.Stats()
	if _, err := RunBackwardOverlapCtx(context.Background(), Config{Model: model, Batch: 16, Graph: g}); err != nil {
		t.Fatal(err)
	}
	hits, misses := collective.DefaultCache.Stats()
	if misses == cold {
		t.Fatal("first iteration on a fresh graph never missed the cache")
	}
	if _, err := RunBackwardOverlapCtx(context.Background(), Config{Model: model, Batch: 64, Graph: g}); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := collective.DefaultCache.Stats()
	if misses2 != misses {
		t.Errorf("second iteration missed the cache %d times, want 0", misses2-misses)
	}
	if got, want := hits2-hits, uint64(NumBuckets(model)); got != want {
		t.Errorf("second iteration hit the cache %d times, want one per bucket (%d)", got, want)
	}
}

// TestBackwardOverlapHonorsComputeScale: a straggler slows DDP's backward
// and forward passes, so the iteration stretches.
func TestBackwardOverlapHonorsComputeScale(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1()}
	uniform, err := RunBackwardOverlapCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ComputeScale = straggler()
	straggled, err := RunBackwardOverlapCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(straggled.IterTime) / float64(uniform.IterTime); ratio < 1.1 || ratio > 1.25 {
		t.Errorf("straggler slowdown %.3f (%v over %v), want ~1.2", ratio, straggled.IterTime, uniform.IterTime)
	}
	cfg.ComputeScale = []float64{1, 1}
	if _, err := RunBackwardOverlapCtx(ctx, cfg); err == nil {
		t.Error("wrong-length ComputeScale accepted")
	}
}

// TestBackwardOverlapRejectsFaults: DDP's bucket schedules are not
// repaired, so a fault plan is an error, not healthy timings.
func TestBackwardOverlapRejectsFaults(t *testing.T) {
	cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(),
		Faults: fault.NewPlan(fault.Event{Kind: fault.GPUSlow, GPU: 3, Factor: 1.5})}
	if _, err := RunBackwardOverlapCtx(context.Background(), cfg); err == nil {
		t.Fatal("DDP ran under a fault plan")
	}
}
