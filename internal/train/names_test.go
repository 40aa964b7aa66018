package train

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccube/internal/des"
	"ccube/internal/dnn"
	"ccube/internal/fault"
	"ccube/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/names.golden")

// TestTaskNamesGolden pins every task name the training graphs render —
// through trace.Chrome (its JSON's length and SHA-256) and trace.Gantt,
// for one zfnet iteration in modes CC, C2 and DDP and for a 2-iteration
// pipeline, and through the error of an iteration aborted by a timed link
// death — byte for byte against testdata/names.golden. Names are derived from each task's position, so
// a change to the graph layout or the namer shows here. Regenerate with
// -update only after reviewing a deliberate change to the layout.
func TestTaskNamesGolden(t *testing.T) {
	ctx := context.Background()
	base := Config{Model: dnn.ZFNet(), Batch: 16, Graph: dgx1()}
	var b strings.Builder
	section := func(title string, g *des.Graph) {
		var js bytes.Buffer
		if err := trace.Chrome(&js, g); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\nchrome %d bytes sha256 %x\n", title, js.Len(), sha256.Sum256(js.Bytes()))
		b.WriteString(trace.Gantt(g, trace.GanttOptions{Width: 60}))
	}
	for _, m := range []Mode{ModeCC, ModeC2, ModeDDP} {
		cfg := base
		cfg.Mode = m
		var res *Result
		var err error
		if m == ModeDDP {
			res, err = RunBackwardOverlapCtx(ctx, cfg)
		} else {
			res, err = RunCtx(ctx, cfg)
		}
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		section(fmt.Sprintf("iteration %s: %v", m, res.IterTime), res.Graph)
	}

	cfg := base
	cfg.Mode = ModeCC
	pipe, err := RunPipeline(ctx, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	section(fmt.Sprintf("pipeline CC x2: %v", pipe.Boundaries), pipe.Graph)

	healthy := run(t, cfg)
	cfg.Faults = fault.NewPlan(fault.Event{Kind: fault.LinkDown, Channel: usedChannelFor(t, cfg),
		At: healthy.IterTime / 2})
	if _, err := RunCtx(ctx, cfg); err == nil {
		t.Fatal("timed link death did not abort the iteration")
	} else {
		fmt.Fprintf(&b, "== timed LinkDown CC\n%v\n", err)
	}

	path := filepath.Join("testdata", "names.golden")
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
		t.Fatalf("task names differ from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
