package experiments

import (
	"strings"
	"testing"

	"ccube/internal/train"
)

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure regeneration in short mode")
	}
	old := Fig14MaxNodes
	Fig14MaxNodes = 64 // keep the scale-out sweep quick in tests
	defer func() { Fig14MaxNodes = old }()

	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tables) == 0 {
				t.Fatalf("%s: no tables", e.ID)
			}
			for _, tab := range tables {
				out := tab.Render()
				if len(out) == 0 || !strings.Contains(out, "\n") {
					t.Errorf("%s: empty render", e.ID)
				}
				if len(tab.Rows) == 0 {
					t.Errorf("%s: table %q has no rows", e.ID, tab.Title)
				}
			}
			if goldenIDs[e.ID] {
				checkGolden(t, e.ID, tables)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig12a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig3HeadlineShape(t *testing.T) {
	g := dgx1()
	oneShot, calls1, err := GranularityBandwidth(g, "one-shot")
	if err != nil {
		t.Fatal(err)
	}
	if calls1 != 1 {
		t.Fatalf("one-shot used %d invocations", calls1)
	}
	layerWise, callsL, err := GranularityBandwidth(g, "layer-wise")
	if err != nil {
		t.Fatal(err)
	}
	if callsL < 40 {
		t.Fatalf("layer-wise used %d invocations, want one per ResNet-50 layer", callsL)
	}
	slicing, callsS, err := GranularityBandwidth(g, "slicing")
	if err != nil {
		t.Fatal(err)
	}
	if callsS <= callsL {
		t.Fatalf("slicing invocations %d <= layer-wise %d", callsS, callsL)
	}
	// Paper: layer-wise ~2x loss, slicing >4x loss.
	lw := oneShot / layerWise
	sl := oneShot / slicing
	if lw < 1.4 || lw > 3 {
		t.Errorf("layer-wise loss %.2fx, paper reports ~2x", lw)
	}
	if sl < 3 {
		t.Errorf("slicing loss %.2fx, paper reports >4x", sl)
	}
	if sl <= lw {
		t.Errorf("slicing loss %.2fx not worse than layer-wise %.2fx", sl, lw)
	}

	if _, _, err := GranularityBandwidth(g, "bogus"); err == nil {
		t.Error("unknown granularity accepted")
	}
}

func TestFig13SweepHeadlines(t *testing.T) {
	cells, err := Fig13Sweep()
	if err != nil {
		t.Fatal(err)
	}
	// 2 bandwidths x 3 models x 3 batches x 5 modes.
	if len(cells) != 2*3*3*5 {
		t.Fatalf("cells = %d, want 90", len(cells))
	}
	type key struct {
		bw, model string
		batch     int
	}
	rows := map[key]map[train.Mode]*train.Result{}
	for _, c := range cells {
		k := key{c.Bandwidth, c.Model, c.Batch}
		if rows[k] == nil {
			rows[k] = map[train.Mode]*train.Result{}
		}
		rows[k][c.Mode] = c.Result
	}
	var ccOverBMax, c1OverBSum float64
	n := 0
	for k, r := range rows {
		ccOverB := float64(r[train.ModeB].IterTime) / float64(r[train.ModeCC].IterTime)
		c1OverB := float64(r[train.ModeB].IterTime) / float64(r[train.ModeC1].IterTime)
		if ccOverB < 1 {
			t.Errorf("%v: CC slower than B (%.3f)", k, ccOverB)
		}
		if ccOverB > ccOverBMax {
			ccOverBMax = ccOverB
		}
		c1OverBSum += c1OverB
		n++
	}
	// Paper: CC up to +61% over B; C1 ~+10% on average.
	if ccOverBMax < 1.2 {
		t.Errorf("max CC/B speedup %.2f, want substantial (paper: up to 1.61)", ccOverBMax)
	}
	if avg := c1OverBSum / float64(n); avg < 1.02 || avg > 1.4 {
		t.Errorf("avg C1/B speedup %.3f, paper reports ~1.10", avg)
	}
}
