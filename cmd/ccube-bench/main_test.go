package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ccube/internal/bench"
)

// TestCheckBaseline pins the per-bench median comparison: a gated median
// over the tolerance is listed as regressed, one within it is not, a gated
// bench missing from an existing baseline fails with a pointer to
// -baseline none, ungated benches are not compared, and a missing baseline
// file is a first run.
func TestCheckBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, benches []bench.Result) string {
		data, err := json.Marshal(map[string]any{"benches": benches})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", []bench.Result{
		{Name: "Execute/a", NsPerOp: 1000, Gated: true},
		{Name: "Check/b", NsPerOp: 2000, Gated: true},
	})
	gated := func(a, b float64) []bench.Result {
		return []bench.Result{
			{Name: "Execute/a", NsPerOp: a, Gated: true},
			{Name: "Check/b", NsPerOp: b, Gated: true},
			{Name: "ServeEncodePlan", NsPerOp: 1e9}, // ungated: never compared
		}
	}
	cases := []struct {
		name      string
		path      string
		results   []bench.Result
		wantErr   string // "" = pass
		deltas    int
		regressed []string
	}{
		{"within tolerance", base, gated(1090, 1500), "", 2, nil},
		{"over tolerance", base, gated(1000, 2300), "", 2, []string{"Check/b"}},
		{"missing bench", base, append(gated(1000, 2000), bench.Result{Name: "Build/c", NsPerOp: 5, Gated: true}),
			"Build/c has no entry in baseline", 2, nil},
		{"missing file", filepath.Join(dir, "absent.json"), gated(1e9, 1e9), "", 0, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			br, err := checkBaseline(c.path, c.results, 0.10)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("unexpected error: %v", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
			}
			if strings.Contains(c.wantErr, "no entry") && !strings.Contains(err.Error(), "-baseline none") {
				t.Errorf("missing-bench error %q does not name -baseline none", err)
			}
			var got int
			var regressed []string
			if br != nil {
				got, regressed = len(br.Benches), br.Regressed
			}
			if got != c.deltas {
				t.Errorf("report compares %d benches, want %d", got, c.deltas)
			}
			if !slices.Equal(regressed, c.regressed) {
				t.Errorf("regressed = %v, want %v", regressed, c.regressed)
			}
		})
	}
}
