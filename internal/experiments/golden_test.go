package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccube/internal/report"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current tables")

// goldenIDs are the experiments whose rendered tables are pinned in
// testdata/<id>.golden: the fault tables, so any change to the repair route
// policy lands as a reviewed diff, and the synthesis tables (makespans and
// plans, no compile time), so any change to the forest packing or the plan
// search does.
var goldenIDs = map[string]bool{"ext-faults": true, "ext-churn": true, "ext-synth": true}

// checkGolden compares an experiment's tables, rendered as ccube-bench
// prints them (minus the wall-clock "regenerated in" line), against its
// golden file. After reviewing a deliberate change, regenerate with
//
//	go test ./internal/experiments -run 'TestAllExperimentsRun/ext-(faults|churn|synth)' -update
func checkGolden(t *testing.T, id string, tables []*report.Table) {
	t.Helper()
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.Render())
		b.WriteString("\n")
	}
	path := filepath.Join("testdata", id+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("%s no longer matches %s (rerun with -update once the change is reviewed):\ngot:\n%s\nwant:\n%s",
			id, path, got, want)
	}
}
