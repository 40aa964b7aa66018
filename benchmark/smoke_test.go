package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, workload string) childConfig {
	return childConfig{Workload: workload, Seed: 3, MinOK: 60, Warmup: 5, Setups: 1, Oracle: true, Out: t.TempDir()}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		res, err := runChild(smokeConfig(t, w.name))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted < 65 {
			t.Errorf("%s: %d of %d requests failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, v)
			}
		}
	}
}

// The traced replay's spans nest: each child lies inside its parent and
// carries its parent's request id.
func TestTracedSpansNest(t *testing.T) {
	cfg := smokeConfig(t, "serve_zipf")
	cfg.Oracle, cfg.Traced, cfg.Replay = false, true, 200*time.Millisecond
	res, err := runChild(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d failures: %v", res.Failed, res.Failures)
	}
	f, err := os.Open(filepath.Join(cfg.Out, "serve_zipf.spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := make(map[int]span)
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span id %d repeats", s.ID)
		}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	roots := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
		if s.Parent < 0 {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Errorf("span %+v has no parent", s)
		case s.Start < p.Start || s.End > p.End:
			t.Errorf("span %+v lies outside its parent %+v", s, p)
		case s.Req != p.Req:
			t.Errorf("span %+v and its parent %+v carry different requests", s, p)
		}
	}
	if roots == 0 || len(spans) == roots {
		t.Fatalf("%d spans, %d roots: want requests with child spans", len(spans), roots)
	}
}
