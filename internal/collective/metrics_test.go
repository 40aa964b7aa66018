package collective

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"ccube/internal/metrics"
	"ccube/internal/topology"
)

// withMetrics enables the process registry for one test and restores the
// disabled/zeroed default afterwards.
func withMetrics(t *testing.T) {
	t.Helper()
	metrics.Default.Reset()
	metrics.Default.Enable()
	t.Cleanup(func() {
		metrics.Default.Disable()
		metrics.Default.Reset()
	})
}

func executedOverlap(t *testing.T, alg Algorithm) float64 {
	t.Helper()
	s, err := Build(Config{Graph: dgx1(), Algorithm: alg, Bytes: 16 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecuteCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return mOverlapEfficiency.Value()
}

// TestOverlapEfficiencyCCPositiveBaselineZero pins the paper's C1 claim as a
// measured quantity: the overlapped double tree keeps broadcast traffic in
// flight during the reduction window, the barrier-synchronized baseline does
// not.
func TestOverlapEfficiencyCCPositiveBaselineZero(t *testing.T) {
	withMetrics(t)
	over := executedOverlap(t, AlgDoubleTreeOverlap)
	if over <= 0 {
		t.Fatalf("overlapped double tree: overlap efficiency = %v, want > 0", over)
	}
	base := executedOverlap(t, AlgDoubleTree)
	if base >= over {
		t.Fatalf("baseline overlap %v not below overlapped %v", base, over)
	}
	if base > 0.05 {
		t.Fatalf("baseline double tree: overlap efficiency = %v, want ~0 (broadcast waits for the barrier)", base)
	}
}

// TestExecutionMetricsPublished checks the per-channel and aggregate series
// a timed execution is expected to emit, end to end through the Prometheus
// export.
func TestExecutionMetricsPublished(t *testing.T) {
	withMetrics(t)
	s, err := Build(Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: 8 << 20, Chunks: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if mExecutions.Value() != 1 {
		t.Fatalf("executions = %d, want 1", mExecutions.Value())
	}
	if mBytesMoved.Value() <= int64(res.Partition.TotalBytes) {
		t.Fatalf("bytes moved = %d, want > message size %d (multi-hop schedule)",
			mBytesMoved.Value(), res.Partition.TotalBytes)
	}
	var buf bytes.Buffer
	if err := metrics.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"collective_overlap_efficiency ",
		"collective_channel_bytes_total{channel=",
		"collective_channel_utilization{channel=",
		"collective_channel_achieved_bw_bytes_per_s{channel=",
		"collective_detour_traffic_share ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus export missing %q", want)
		}
	}
	// Achieved bandwidth can never exceed the effective link rate.
	for _, fam := range metrics.Default.Snapshot() {
		if fam.Name != "collective_channel_achieved_bw_bytes_per_s" {
			continue
		}
		for _, v := range fam.Values {
			eff := mChannelEffectiveBW.With(v.Label).Value()
			if eff > 0 && v.Value > eff*1.0001 {
				t.Errorf("channel %s achieved %v B/s above effective %v B/s", v.Label, v.Value, eff)
			}
		}
	}
}

// TestExecutionMetricsDisabledRecordsNothing guards the gate: with the
// registry off, a run must leave every collective instrument untouched.
func TestExecutionMetricsDisabledRecordsNothing(t *testing.T) {
	metrics.Default.Reset()
	if metrics.Default.Enabled() {
		t.Fatal("registry unexpectedly enabled")
	}
	s, err := Build(Config{Graph: dgx1(), Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecuteCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if mExecutions.Value() != 0 || mBytesMoved.Value() != 0 {
		t.Fatal("disabled registry recorded execution metrics")
	}
}

// TestCacheLRUBoundsMutationSweep reproduces the unbounded-growth bug's
// trigger: a sweep that mutates topology health each step mints a fresh
// fingerprint per build, and the cache must stay within its bounds instead
// of holding one dead entry per mutation.
func TestCacheLRUBoundsMutationSweep(t *testing.T) {
	c := NewCache()
	c.capacity = 8
	g := topology.DGX1(topology.DefaultDGX1Config())
	const sweeps = 100
	for i := 0; i < sweeps; i++ {
		// Alternate degrading two channels with distinct factors: every
		// iteration changes the fingerprint, like ext-faults' sweep.
		g.DegradeChannel(topology.ChannelID(i%4), 1.5+float64(i)/sweeps)
		if _, err := c.Build(Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: 1 << 20}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 8 {
		t.Fatalf("cache holds %d entries, capacity 8", c.Len())
	}
	hits, misses := c.Stats()
	if misses != sweeps {
		t.Fatalf("misses = %d, want %d (every mutation is a fresh fingerprint)", misses, sweeps)
	}
	if hits != 0 {
		t.Fatalf("hits = %d, want 0", hits)
	}
	if ev := c.Evictions(); ev != sweeps-8 {
		t.Fatalf("evictions = %d, want %d", ev, sweeps-8)
	}
}

// TestCacheLRUEvictsLeastRecentlyUsed pins the eviction order: touching an
// old entry must protect it over a colder one.
func TestCacheLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewCache()
	c.capacity = 2
	g := topology.DGX1(topology.DefaultDGX1Config())
	cfg := func(bytes int64) Config {
		return Config{Graph: g, Algorithm: AlgDoubleTreeOverlap, Bytes: bytes}
	}
	mustBuild := func(bytes int64) {
		t.Helper()
		if _, err := c.Build(cfg(bytes)); err != nil {
			t.Fatal(err)
		}
	}
	mustBuild(1 << 20) // A
	mustBuild(2 << 20) // B; cache = {A, B}
	mustBuild(1 << 20) // touch A: B is now least recently used
	mustBuild(4 << 20) // C evicts B
	hits, misses := c.Stats()
	if hits != 1 || misses != 3 {
		t.Fatalf("stats = %d/%d, want 1 hit / 3 misses", hits, misses)
	}
	mustBuild(1 << 20) // A must still be cached
	if h, _ := c.Stats(); h != 2 {
		t.Fatalf("touching A after eviction of B missed (hits=%d)", h)
	}
	mustBuild(2 << 20) // B was evicted: this must miss
	if _, m := c.Stats(); m != 4 {
		t.Fatalf("B not evicted (misses=%d, want 4)", m)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if c.Evictions() != 2 {
		t.Fatalf("evictions = %d, want 2", c.Evictions())
	}
}
