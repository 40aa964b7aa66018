package train

import (
	"context"
	"testing"

	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/fault"
	"ccube/internal/topology"
)

func TestPipelineValidatesSingleCycleModel(t *testing.T) {
	// The steady-state cycle of a 4-iteration pipeline must equal the
	// single-cycle estimate from RunCtx, for every mode — the single-iteration
	// abstraction is only valid if iterations do not interfere.
	for _, m := range Modes() {
		cfg := Config{Model: dnn.ResNet50(), Batch: 32, Graph: lowBW(), Mode: m}
		single := run(t, cfg)
		pipe, err := RunPipeline(context.Background(), cfg, 4)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(pipe.CycleTimes) != 4 {
			t.Fatalf("%s: %d cycles", m, len(pipe.CycleTimes))
		}
		steady := pipe.SteadyCycle()
		diff := float64(steady-single.IterTime) / float64(single.IterTime)
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.01 {
			t.Errorf("%s: steady cycle %v differs from single-cycle %v by %.2f%%",
				m, steady, single.IterTime, diff*100)
		}
	}
}

func TestPipelineCyclesStabilize(t *testing.T) {
	cfg := Config{Model: dnn.VGG16(), Batch: 32, Graph: dgx1(), Mode: ModeCC}
	pipe, err := RunPipeline(context.Background(), cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	// After the first cycle, all cycles must be identical (deterministic
	// steady state).
	for k := 2; k < len(pipe.CycleTimes); k++ {
		if pipe.CycleTimes[k] != pipe.CycleTimes[1] {
			t.Fatalf("cycle %d = %v, cycle 1 = %v: pipeline did not stabilize",
				k, pipe.CycleTimes[k], pipe.CycleTimes[1])
		}
	}
	// Boundaries strictly increase.
	var prev des.Time
	for k, b := range pipe.Boundaries {
		if b <= prev {
			t.Fatalf("boundary %d = %v not after %v", k, b, prev)
		}
		prev = b
	}
}

func TestPipelineValidation(t *testing.T) {
	cfg := Config{Model: dnn.ZFNet(), Batch: 16, Graph: dgx1(), Mode: ModeB}
	if _, err := RunPipeline(context.Background(), cfg, 0); err == nil {
		t.Error("zero iterations accepted")
	}
	bad := cfg
	bad.Batch = 0
	if _, err := RunPipeline(context.Background(), bad, 2); err == nil {
		t.Error("bad config accepted")
	}
}

// TestRunCtxIsOneIterationPipeline pins RunCtx to the appender it shares
// with RunPipeline: one iteration times exactly as a one-iteration
// pipeline, for every mode and model on both DGX-1 fabrics.
func TestRunCtxIsOneIterationPipeline(t *testing.T) {
	ctx := context.Background()
	for _, g := range []*topology.Graph{dgx1(), lowBW()} {
		for _, model := range []dnn.Model{dnn.ZFNet(), dnn.VGG16(), dnn.ResNet50(), dnn.BERTBase()} {
			for _, m := range Modes() {
				cfg := Config{Model: model, Batch: 64, Graph: g, Mode: m}
				single := run(t, cfg)
				pipe, err := RunPipeline(ctx, cfg, 1)
				if err != nil {
					t.Fatalf("%s/%s: %v", model.Name, m, err)
				}
				if single.IterTime != pipe.Boundaries[0] {
					t.Errorf("%s/%s: RunCtx %v, one-iteration pipeline %v", model.Name, m, single.IterTime, pipe.Boundaries[0])
				}
			}
		}
	}
}

// straggler returns a ComputeScale for 8 GPUs slowing GPU 5 by 1.2.
func straggler() []float64 {
	scale := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	scale[5] = 1.2
	return scale
}

// TestPipelineHonorsComputeScale: a straggler stretches every pipeline
// cycle as it stretches a RunCtx iteration.
func TestPipelineHonorsComputeScale(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC}
	uniform, err := RunPipeline(ctx, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ComputeScale = straggler()
	single := run(t, cfg)
	pipe, err := RunPipeline(ctx, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Boundaries[0] != single.IterTime {
		t.Errorf("first straggled cycle ends at %v, RunCtx %v", pipe.Boundaries[0], single.IterTime)
	}
	for k, c := range pipe.CycleTimes {
		if c <= uniform.CycleTimes[k] {
			t.Errorf("cycle %d: straggled %v <= uniform %v", k, c, uniform.CycleTimes[k])
		}
	}
}

// TestPipelineHonorsFaults: a static fault plan holds for every
// iteration. A slow GPU and a dead link time the first cycle as RunCtx
// does, stretch every cycle, and leave the graph healthy afterwards.
func TestPipelineHonorsFaults(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC}
	healthy, err := RunPipeline(ctx, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	dead := usedChannelFor(t, cfg)
	cfg.Faults = fault.NewPlan(
		fault.Event{Kind: fault.GPUSlow, GPU: 3, Factor: 1.5},
		fault.Event{Kind: fault.LinkDown, Channel: dead})
	single := run(t, cfg)
	pipe, err := RunPipeline(ctx, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Boundaries[0] != single.IterTime {
		t.Errorf("first faulted cycle ends at %v, RunCtx %v", pipe.Boundaries[0], single.IterTime)
	}
	for k, c := range pipe.CycleTimes {
		if c <= healthy.CycleTimes[k] {
			t.Errorf("cycle %d: faulted %v <= healthy %v", k, c, healthy.CycleTimes[k])
		}
	}
	if cfg.Graph.Channel(dead).Down() {
		t.Error("graph health not restored after the pipeline")
	}
}
