package train

import (
	"context"
	"strings"
	"testing"

	"ccube/internal/dnn"
	"ccube/internal/metrics"
)

// withMetrics enables the default registry for one test and restores the
// disabled, clean state afterwards.
func withMetrics(t *testing.T) {
	t.Helper()
	metrics.Default.Reset()
	metrics.Default.Enable()
	t.Cleanup(func() {
		metrics.Default.Disable()
		metrics.Default.Reset()
	})
}

// snapshotValue finds a scalar family in the registry snapshot.
func snapshotValue(t *testing.T, name string) float64 {
	t.Helper()
	for _, f := range metrics.Default.Snapshot() {
		if f.Name == name {
			if len(f.Values) != 1 {
				t.Fatalf("%s: %d values, want 1", name, len(f.Values))
			}
			return f.Values[0].Value
		}
	}
	t.Fatalf("family %s not in snapshot", name)
	return 0
}

// TestCCMetricsShowChainingBenefit is the paper's C1+C2 story read off the
// metrics layer: a chained (CC) iteration overlaps its reduction with
// broadcast traffic (overlap efficiency > 0) and starts forward layers
// strictly before the AllReduce completes, while the baseline B cannot
// start any forward work until communication is done.
func TestCCMetricsShowChainingBenefit(t *testing.T) {
	withMetrics(t)

	cc, err := RunCtx(context.Background(), Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC})
	if err != nil {
		t.Fatal(err)
	}
	if overlap := snapshotValue(t, "collective_overlap_efficiency"); overlap <= 0 {
		t.Errorf("CC overlap efficiency = %v, want > 0", overlap)
	}
	if cc.CommDone <= 0 {
		t.Fatalf("CC CommDone = %v, want > 0", cc.CommDone)
	}
	if len(cc.LayerForwardStart) == 0 {
		t.Fatal("CC recorded no per-layer forward starts")
	}
	// C2 benefit: the first forward layers launch while AllReduce traffic is
	// still in flight.
	early := 0
	for _, start := range cc.LayerForwardStart {
		if start < cc.CommDone {
			early++
		}
	}
	if early == 0 {
		t.Errorf("CC: no forward layer starts before AllReduce completion %v", cc.CommDone)
	}
	if cc.LayerForwardStart[0] >= cc.CommDone {
		t.Errorf("CC: first forward start %v not earlier than AllReduce completion %v",
			cc.LayerForwardStart[0], cc.CommDone)
	}

	b, err := RunCtx(context.Background(), Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeB})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.LayerForwardStart) == 0 {
		t.Fatal("B recorded no per-layer forward starts")
	}
	for l, start := range b.LayerForwardStart {
		if start < b.CommDone {
			t.Errorf("B: forward layer %d starts at %v, before AllReduce completion %v",
				l, start, b.CommDone)
		}
	}
	if got := snapshotValue(t, "train_steps_total"); got != 2 {
		t.Errorf("train_steps_total = %v, want 2", got)
	}
}

// TestTrainMetricsInPrometheusOutput checks the user-visible exposition the
// -metrics flag prints: the iteration gauges and per-layer histograms are
// present with the mode label attached.
func TestTrainMetricsInPrometheusOutput(t *testing.T) {
	withMetrics(t)
	if _, err := RunCtx(context.Background(), Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := metrics.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`train_iter_time_us{mode="CC"}`,
		`train_first_forward_wait_us{mode="CC"}`,
		"train_layer_forward_start_us_count",
		"train_layer_dequeue_wait_us_count",
		"train_step_wall_seconds",
		"collective_overlap_efficiency",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestMetricsDisabledTrainRecordsNothing: a RunCtx with collection off
// must leave the registry empty-valued.
func TestMetricsDisabledTrainRecordsNothing(t *testing.T) {
	metrics.Default.Reset()
	t.Cleanup(metrics.Default.Reset)
	if metrics.Default.Enabled() {
		t.Fatal("default registry unexpectedly enabled")
	}
	if _, err := RunCtx(context.Background(), Config{Model: dnn.ResNet50(), Batch: 64, Graph: dgx1(), Mode: ModeCC}); err != nil {
		t.Fatal(err)
	}
	if got := snapshotValue(t, "train_steps_total"); got != 0 {
		t.Errorf("train_steps_total = %v with metrics disabled, want 0", got)
	}
}
