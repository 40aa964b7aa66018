package lint

import (
	"testing"
	"time"
)

// runRepo lints the real module from a cold loader, returning the result.
func runRepo(tb testing.TB) *Result {
	tb.Helper()
	loader, err := NewLoader("../..")
	if err != nil {
		tb.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		tb.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			tb.Fatalf("%s: type error: %v", p.ImportPath, te)
		}
	}
	return Run(pkgs, nil)
}

// TestRepoLintsCleanAndFast is the acceptance gate for the framework: the
// repo itself must lint clean (violations are fixed, not accumulated), and a
// full cold run — parse, type-check, every analyzer over every package —
// must finish well under the 5 s budget.
func TestRepoLintsCleanAndFast(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint in -short mode")
	}
	start := time.Now()
	res := runRepo(t)
	elapsed := time.Since(start)
	for _, d := range res.Diagnostics {
		t.Errorf("repo is not lint-clean: %s", d)
	}
	if res.NumPackages < 20 {
		t.Errorf("loaded only %d packages; the walk missed most of the module", res.NumPackages)
	}
	if elapsed > 5*time.Second {
		t.Errorf("full lint took %v, want < 5s", elapsed)
	}
}

// BenchmarkLintModule measures a full cold lint of the module: shared
// single-parse/single-type-check across every analyzer.
func BenchmarkLintModule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runRepo(b)
		if len(res.Diagnostics) != 0 {
			b.Fatalf("repo not lint-clean: %d diagnostics", len(res.Diagnostics))
		}
	}
}
