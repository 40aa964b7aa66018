package train

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/fault"
	"ccube/internal/topology"
)

// usedChannelFor returns a channel the mode's schedule actually rides.
func usedChannelFor(t *testing.T, cfg Config) topology.ChannelID {
	t.Helper()
	sched, err := cfg.buildSchedule(cfg.Graph.GPUs())
	if err != nil {
		t.Fatal(err)
	}
	p := sched.Program()
	for i := range p.Ops {
		if !p.Ops[i].Marker() {
			return p.Ops[i].ChannelID()
		}
	}
	t.Fatal("no transfers")
	return -1
}

// A dead link at iteration start: the collective detours around it, the
// iteration completes, and the lost bandwidth can only cost time.
func TestTrainingSurvivesDeadLink(t *testing.T) {
	for _, m := range Modes() {
		cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: m}
		healthy := run(t, cfg)
		dead := usedChannelFor(t, cfg)
		cfg.Faults = fault.NewPlan(fault.Event{Kind: fault.LinkDown, Channel: dead})
		faulted := run(t, cfg)
		if faulted.IterTime < healthy.IterTime {
			t.Errorf("%s: faulted iter %v < healthy %v", m, faulted.IterTime, healthy.IterTime)
		}
		if cfg.Graph.Channel(dead).Down() {
			t.Errorf("%s: graph health not restored", m)
		}
	}
}

// A statically slow GPU folds into the straggler model: synchronous data
// parallelism pays for it in every mode.
func TestTrainingGPUSlowFault(t *testing.T) {
	cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC}
	healthy := run(t, cfg)
	cfg.Faults = fault.NewPlan(fault.Event{Kind: fault.GPUSlow, GPU: 3, Factor: 1.5})
	faulted := run(t, cfg)
	if faulted.IterTime <= healthy.IterTime {
		t.Fatalf("slow-GPU iter %v <= healthy %v", faulted.IterTime, healthy.IterTime)
	}
	// The fault factor composes with an explicit straggler config.
	cfg.ComputeScale = []float64{1, 1, 1, 1.2, 1, 1, 1, 1}
	composed := run(t, cfg)
	if composed.IterTime <= faulted.IterTime {
		t.Fatalf("composed straggler iter %v <= fault-only %v", composed.IterTime, faulted.IterTime)
	}
}

// A degraded link slows the collective but the iteration still completes.
func TestTrainingDegradedLinkFault(t *testing.T) {
	cfg := Config{Model: dnn.VGG16(), Batch: 64, Graph: dgx1(), Mode: ModeB}
	healthy := run(t, cfg)
	cfg.Faults = fault.NewPlan(fault.Event{Kind: fault.LinkDegrade, Channel: usedChannelFor(t, cfg), Factor: 16})
	faulted := run(t, cfg)
	if faulted.CommTime <= healthy.CommTime {
		t.Fatalf("degraded comm %v <= healthy %v", faulted.CommTime, healthy.CommTime)
	}
}

// A link dying mid-iteration surfaces as a structured error, never a hang.
func TestTrainingMidRunLinkDeathFailsLoudly(t *testing.T) {
	cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC}
	healthy := run(t, cfg)
	dead := usedChannelFor(t, cfg)
	// Arm the kill inside the communication window: after backward starts
	// but well before the iteration ends.
	cfg.Faults = fault.NewPlan(fault.Event{Kind: fault.LinkDown, Channel: dead, At: healthy.IterTime / 2})
	_, err := RunCtx(context.Background(), cfg)
	if err == nil {
		t.Skip("kill landed outside the channel's busy window")
	}
	var fe *des.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *des.FaultError", err)
	}
	if !strings.Contains(err.Error(), "fault") {
		t.Fatalf("uninformative error: %v", err)
	}
	if cfg.Graph.Channel(dead).Down() {
		t.Fatal("graph health not restored after aborted run")
	}
}

// An unrepairable fabric is rejected before anything executes.
func TestTrainingUnrepairableFault(t *testing.T) {
	cfg := Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC}
	plan := &fault.Plan{}
	for _, cid := range cfg.Graph.Out(topology.NodeID(2)) {
		plan.Events = append(plan.Events, fault.Event{Kind: fault.LinkDown, Channel: cid})
	}
	cfg.Faults = plan
	_, err := RunCtx(context.Background(), cfg)
	if err == nil {
		t.Fatal("training over an unrepairable fabric succeeded")
	}
}
