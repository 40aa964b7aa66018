package fault_test

import (
	"context"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/fault"
)

// The churn harness: both modes survive a sustained failure/recovery sweep,
// the fabric recovers exactly between epochs (fingerprint contract), and the
// adapt mode's throughput floor is no worse than relaunch's — the headline
// acceptance property, asserted here at DGX-1 scale and in the ext-churn
// benchmark at scale-out sizes.
func TestRunChurnAdaptFloorBeatsRelaunch(t *testing.T) {
	cfg := collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 1 << 20, Chunks: 8}
	fp := cfg.Graph.Fingerprint()
	run := func(mode fault.Mode) *fault.ChurnReport {
		rep, err := fault.RunChurnCtx(context.Background(), fault.ChurnConfig{
			Collective:    cfg,
			Seed:          1,
			Epochs:        4,
			FailLinks:     1,
			RepairLatency: 50_000, // 50us of control-plane latency per reconfiguration
			Mode:          mode,
		})
		if err != nil {
			t.Fatalf("%s churn: %v", mode, err)
		}
		if got := cfg.Graph.Fingerprint(); got != fp {
			t.Fatalf("%s churn left the fabric altered: %x want %x", mode, got, fp)
		}
		return rep
	}
	relaunch := run(fault.ModeRelaunch)
	adapt := run(fault.ModeAdapt)

	for _, rep := range []*fault.ChurnReport{relaunch, adapt} {
		if rep.HealthyThroughput <= 0 {
			t.Fatalf("%s: non-positive healthy throughput", rep.Mode)
		}
		if len(rep.Epochs) != 4 {
			t.Fatalf("%s: %d epochs, want 4", rep.Mode, len(rep.Epochs))
		}
		if rep.FloorThroughput <= 0 || rep.MeanThroughput < rep.FloorThroughput {
			t.Fatalf("%s: floor %v mean %v", rep.Mode, rep.FloorThroughput, rep.MeanThroughput)
		}
		if rb := rep.RecoveredBandwidth(); rb <= 0 || rb > 1.000001 {
			t.Fatalf("%s: recovered bandwidth %v outside (0, 1]", rep.Mode, rb)
		}
	}
	if relaunch.FaultEvents == 0 {
		t.Fatal("churn sweep injected no effective faults — widen the window or fail more links")
	}
	if adapt.Adapted == 0 {
		t.Fatal("adapt churn never exercised patch-and-resume")
	}
	if adapt.FloorThroughput < relaunch.FloorThroughput {
		t.Fatalf("adapt floor %v < relaunch floor %v", adapt.FloorThroughput, relaunch.FloorThroughput)
	}
}

// Churn is deterministic: the same config yields byte-identical reports.
func TestRunChurnDeterministic(t *testing.T) {
	cfg := fault.ChurnConfig{
		Collective:    collective.Config{Graph: dgx1(), Algorithm: collective.AlgDoubleTree, Bytes: 1 << 19, Chunks: 8},
		Seed:          5,
		Epochs:        3,
		FailLinks:     1,
		RepairLatency: des.Time(100_000),
		Mode:          fault.ModeAdapt,
	}
	a, err := fault.RunChurnCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fault.RunChurnCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.FloorThroughput != b.FloorThroughput || a.MeanThroughput != b.MeanThroughput ||
		a.FaultEvents != b.FaultEvents || a.Adapted != b.Adapted || a.Retries != b.Retries {
		t.Fatalf("non-deterministic churn: %+v vs %+v", a, b)
	}
	for i := range a.Epochs {
		if a.Epochs[i] != b.Epochs[i] {
			t.Fatalf("epoch %d diverged: %+v vs %+v", i, a.Epochs[i], b.Epochs[i])
		}
	}
}

// A churn config without a graph fails loudly.
func TestRunChurnNoGraph(t *testing.T) {
	if _, err := fault.RunChurnCtx(context.Background(), fault.ChurnConfig{}); err == nil {
		t.Fatal("churn without a topology graph accepted")
	}
}
