package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/topology"
)

func TestRegistryIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Description == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
}

func TestExtDGX2NoDetours(t *testing.T) {
	// The crossbar must need no detour routes for the double tree, and the
	// overlap win must match the DGX-1's (~1.76x at 64MB).
	g := topology.DGX2()
	sched, err := collective.Build(collective.Config{
		Graph: g, Algorithm: collective.AlgDoubleTreeOverlap, Bytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sched.DetourNodes()); n != 0 {
		t.Fatalf("DGX-2 double tree uses %d detours, want 0", n)
	}
	base, err := collective.RunCtx(context.Background(), collective.Config{
		Graph: g, Algorithm: collective.AlgDoubleTree, Bytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	over, err := sched.ExecuteCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(base.Total) / float64(over.Total)
	if speedup < 1.6 || speedup > 2.0 {
		t.Errorf("DGX-2 overlap speedup %.2f, want ~1.76", speedup)
	}
}

func TestExtHierTables(t *testing.T) {
	tables, err := ExtHierarchical()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("tables = %d, want 2 (comm + training)", len(tables))
	}
	out := tables[0].Render()
	// The chained column must show a multi-x speedup at every box count.
	if !strings.Contains(out, "2.") {
		t.Errorf("hierarchical speedups missing from:\n%s", out)
	}
}

func TestExtTransformerCase3Hazard(t *testing.T) {
	tables, err := ExtTransformer()
	if err != nil {
		t.Fatal(err)
	}
	cmp := tables[1]
	if len(cmp.Rows) != 2 {
		t.Fatalf("comparison rows = %d", len(cmp.Rows))
	}
	// BERT's first-forward share (row 1, col 3) must exceed ResNet's (row 0).
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", s, err)
		}
		return v
	}
	resnet := parse(cmp.Rows[0][3])
	bert := parse(cmp.Rows[1][3])
	if bert <= resnet {
		t.Errorf("BERT first-forward share %.1f%% <= ResNet %.1f%%", bert, resnet)
	}
}
