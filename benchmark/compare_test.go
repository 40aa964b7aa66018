package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		// statistics.quantiles(v, n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(tc.v); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
}

// around returns ten values spread ±spread around m.
func around(m, spread float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = m + spread*(float64(i)-4.5)/4.5
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	rps := metricDef{name: "throughput_rps", unit: "1/s", better: "higher", bound: 0.05}
	p99 := metricDef{name: "latency_p99_ms", unit: "ms", better: "lower", bound: 0.15}
	rev := func(v []float64) []float64 {
		out := make([]float64, len(v))
		for i := range v {
			out[len(v)-1-i] = v[i]
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		d              metricDef
		parent, change []float64
		want           string
	}{
		{"clear gain", rps, around(100, 1), around(110, 1), improved},
		{"gain inside the parent's spread", rps, around(100, 30), around(103, 30), unresolved},
		{"drop beyond the bound", rps, around(100, 1), around(90, 1), regressed},
		{"latency rise beyond the bound", p99, around(10, 0.2), around(12, 0.2), regressed},
		{"latency gain", p99, around(10, 0.2), around(8, 0.2), improved},
		{"noise within the bound", rps, around(100, 1), rev(around(100.5, 1)), unchanged},
		{"wide spread, every change run better", rps, around(50, 50), around(101.5, 0.5), unchanged},
		{"wide spread, not every run better", rps, around(100, 30), around(98, 30), unresolved},
	} {
		if got := compareRuns(tc.d, tc.parent, tc.change).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func writeRuns(t *testing.T, dir string, runs int, rps float64) {
	t.Helper()
	var b bytes.Buffer
	for seed := 1; seed <= runs; seed++ {
		m := map[string]float64{}
		for _, d := range endToEnd {
			m[d.name] = 1 + float64(seed)/1000
		}
		m["throughput_rps"] = rps + float64(seed)/1000
		line, err := json.Marshal(runRecord{Workload: "plan_unique", Seed: uint64(seed), Correct: true, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(append(line, '\n'))
	}
	if err := os.WriteFile(filepath.Join(dir, "results.jsonl"), b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareMain(t *testing.T) {
	parent, change := t.TempDir(), t.TempDir()
	writeRuns(t, parent, 10, 100)
	writeRuns(t, change, 10, 60)
	var out bytes.Buffer
	if code := compareMain([]string{parent, change}, &out); code != 1 {
		t.Fatalf("exit %d, want 1 for a regression:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "throughput_rps") || !strings.Contains(out.String(), regressed) {
		t.Fatalf("output lacks the regressed throughput row:\n%s", out.String())
	}

	writeRuns(t, change, 9, 100)
	if code := compareMain([]string{parent, change}, &out); code != 2 {
		t.Fatalf("exit %d with 9 run pairs, want 2", code)
	}
}
