package train

import (
	"context"
	"testing"

	"ccube/internal/des"
	"ccube/internal/dnn"
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
