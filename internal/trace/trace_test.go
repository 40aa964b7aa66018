package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"ccube/internal/collective"
	"ccube/internal/des"
	"ccube/internal/topology"
)

func executedGraph(t *testing.T) *des.Graph {
	t.Helper()
	g := des.NewGraph()
	link := des.NewResource("link:A->B")
	gpu := des.NewResource("stream:A")
	a := g.Add("send-1", link, 100)
	b := g.Add("send-2", link, 100, a)
	g.Add("compute", gpu, 150, a)
	g.Add("marker", nil, 0, b)
	g.RunCtx(context.Background())
	return g
}

func TestChromeExport(t *testing.T) {
	g := executedGraph(t)
	var buf bytes.Buffer
	if err := Chrome(&buf, g); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var complete, meta, instant int
	names := map[string]bool{}
	laneNames := map[string]bool{}
	var markerEv map[string]any
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			complete++
			names[ev["name"].(string)] = true
		case "M":
			meta++
			laneNames[ev["args"].(map[string]any)["name"].(string)] = true
		case "i":
			instant++
			if ev["name"] == "marker" {
				markerEv = ev
			}
		}
	}
	// 3 real tasks on 2 lanes, plus the zero-duration marker as an instant
	// event on a third "markers" lane.
	if complete != 3 {
		t.Errorf("complete events = %d, want 3", complete)
	}
	if meta != 3 {
		t.Errorf("lane metadata events = %d, want 3", meta)
	}
	if instant != 1 {
		t.Errorf("instant events = %d, want 1", instant)
	}
	if markerEv == nil {
		t.Fatal("zero-duration marker not exported as an instant event")
	}
	if markerEv["s"] != "t" {
		t.Errorf("instant scope = %v, want %q", markerEv["s"], "t")
	}
	if _, hasDur := markerEv["dur"]; hasDur {
		t.Error("instant event carries a dur field")
	}
	// The marker fires when send-2 finishes (t=200).
	if markerEv["ts"].(float64) != des.Time(200).Micros() {
		t.Errorf("marker ts = %v, want %v", markerEv["ts"], des.Time(200).Micros())
	}
	if !laneNames["markers"] {
		t.Errorf("no markers lane named, lanes: %v", laneNames)
	}
	if !names["send-1"] || !names["compute"] {
		t.Errorf("missing task names: %v", names)
	}
}

func TestChromeInstantOnResourceLane(t *testing.T) {
	// A zero-duration task that owns a resource ticks on that resource's
	// lane, not on the shared markers lane.
	g := des.NewGraph()
	link := des.NewResource("link:A->B")
	a := g.Add("send", link, 100)
	g.Add("flush", link, 0, a)
	g.RunCtx(context.Background())
	var buf bytes.Buffer
	if err := Chrome(&buf, g); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var sendTid, flushTid, metaCount = -1.0, -2.0, 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev["name"] == "send":
			sendTid = ev["tid"].(float64)
		case ev["name"] == "flush":
			if ev["ph"] != "i" {
				t.Errorf("flush ph = %v, want i", ev["ph"])
			}
			flushTid = ev["tid"].(float64)
		case ev["ph"] == "M":
			metaCount++
		}
	}
	if sendTid != flushTid {
		t.Errorf("flush tid = %v, send tid = %v: instant not on its resource lane", flushTid, sendTid)
	}
	if metaCount != 1 {
		t.Errorf("lane metadata events = %d, want 1 (no markers lane needed)", metaCount)
	}
}

func TestChromeRequiresExecutedGraph(t *testing.T) {
	g := des.NewGraph()
	g.Add("pending", nil, 1)
	var buf bytes.Buffer
	if err := Chrome(&buf, g); err == nil {
		t.Fatal("unexecuted graph exported")
	}
}

func TestGantt(t *testing.T) {
	g := executedGraph(t)
	out := Gantt(g, GanttOptions{Width: 40, MaxLanes: 10})
	if !strings.Contains(out, "link:A->B") || !strings.Contains(out, "stream:A") {
		t.Fatalf("gantt missing lanes:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("gantt has no occupancy marks:\n%s", out)
	}
	// Horizon is 250 (compute ends at 100+150): link busy 200/250 = 80%,
	// stream 150/250 = 60%.
	if !strings.Contains(out, "80.0%") || !strings.Contains(out, "60.0%") {
		t.Fatalf("gantt utilization wrong:\n%s", out)
	}
	// Busiest lane (the link) listed first.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[1], "link:A->B") {
		t.Fatalf("lanes not sorted by busy time:\n%s", out)
	}
}

func TestGanttLaneCap(t *testing.T) {
	g := des.NewGraph()
	for i := 0; i < 30; i++ {
		g.Add("t", des.NewResource("r"), 10)
	}
	g.RunCtx(context.Background())
	out := Gantt(g, GanttOptions{Width: 20, MaxLanes: 5})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 7 { // header + 5 lanes + truncation footer
		t.Fatalf("lines = %d, want 7:\n%s", len(lines), out)
	}
	if lines[6] != "(+25 more lanes)" {
		t.Fatalf("footer = %q, want %q", lines[6], "(+25 more lanes)")
	}
}

func TestGanttZeroMaxLanesShowsAll(t *testing.T) {
	g := des.NewGraph()
	for i := 0; i < 30; i++ {
		g.Add("t", des.NewResource("r"), 10)
	}
	g.RunCtx(context.Background())
	out := Gantt(g, GanttOptions{Width: 20}) // MaxLanes 0 = all
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 31 { // header + all 30 lanes, no footer
		t.Fatalf("lines = %d, want 31:\n%s", len(lines), out)
	}
	if strings.Contains(out, "more lanes") {
		t.Fatalf("unexpected truncation footer with MaxLanes=0:\n%s", out)
	}
}

func TestGanttEmpty(t *testing.T) {
	g := des.NewGraph()
	g.RunCtx(context.Background())
	if out := Gantt(g, GanttOptions{}); !strings.Contains(out, "empty") {
		t.Fatalf("empty graph gantt = %q", out)
	}
}

func TestTraceOfCollectiveSchedule(t *testing.T) {
	// End-to-end: trace a real C-Cube schedule.
	sched, err := collective.Build(collective.Config{
		Graph:     topology.DGX1(topology.DefaultDGX1Config()),
		Algorithm: collective.AlgDoubleTreeOverlap,
		Bytes:     4 << 20,
		Chunks:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, g, err := sched.ExecuteOnCtx(context.Background(), sched.Graph.Resources())
	if err != nil {
		t.Fatal(err)
	}
	if res.Total <= 0 {
		t.Fatal("no timing")
	}
	var buf bytes.Buffer
	if err := Chrome(&buf, g); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1000 {
		t.Fatalf("trace suspiciously small: %d bytes", buf.Len())
	}
	out := Gantt(g, GanttOptions{Width: 60})
	if !strings.Contains(out, "GPU") {
		t.Fatalf("gantt missing channel lanes:\n%s", out)
	}
}
