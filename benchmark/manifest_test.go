package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root and the tables in this package
// describe the same workloads and metrics.
func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	var wantW []wl
	for _, w := range workloads {
		wantW = append(wantW, wl{w.name, w.why})
	}
	if !reflect.DeepEqual(m.Workloads, wantW) {
		t.Errorf("workloads differ:\n json %+v\n code %+v", m.Workloads, wantW)
	}
	defs := func(ds []metricDef, bounded bool) []metric {
		var out []metric
		for _, d := range ds {
			x := metric{Name: d.name, Unit: d.unit, Better: d.better}
			if bounded {
				x.Bound = &d.bound
			}
			out = append(out, x)
		}
		return out
	}
	if !reflect.DeepEqual(m.EndToEnd, defs(endToEnd, true)) {
		t.Errorf("end_to_end differs from endToEnd")
	}
	if !reflect.DeepEqual(m.PerLayer, defs(perLayer, false)) {
		t.Errorf("per_layer differs from perLayer")
	}
}
