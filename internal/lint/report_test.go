package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func sampleResult() *Result {
	return &Result{
		Diagnostics: []Diagnostic{
			{
				Rule:    "no-sleep",
				Pos:     token.Position{Filename: "internal/des/des.go", Line: 12, Column: 2},
				Message: "time.Sleep in a simulator package; advance time through the DES engine",
			},
			{
				Rule:    "unchecked-engine-err",
				Pos:     token.Position{Filename: "internal/server/api.go", Line: 40, Column: 9},
				Message: "error from s.ExecuteCtx is discarded (call used as a statement)",
			},
		},
		Suppressed:  3,
		NumPackages: 2,
		NumFiles:    4,
	}
}

func TestWriteText(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleResult(), FormatText); err != nil {
		t.Fatalf("Write: %v", err)
	}
	out := buf.String()
	for _, wantSub := range []string{
		"internal/des/des.go:12:2: [no-sleep]",
		"internal/server/api.go:40:9: [unchecked-engine-err]",
		"ccube-lint: 2 issues (3 suppressed)",
	} {
		if !strings.Contains(out, wantSub) {
			t.Errorf("text output missing %q:\n%s", wantSub, out)
		}
	}
}

func TestWriteUnknownFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleResult(), Format("xml")); err == nil {
		t.Fatal("Write accepted an unknown format")
	}
}

// TestSARIFShape validates the output against the SARIF 2.1.0 required-key
// shape that CI consumers (GitHub code scanning) check: $schema, version,
// runs[].tool.driver with rule metadata, and results with ruleId/ruleIndex
// and physical locations.
func TestSARIFShape(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleResult(), FormatSARIF); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc["$schema"] != sarifSchemaURI {
		t.Errorf("$schema = %v, want %q", doc["$schema"], sarifSchemaURI)
	}
	if doc["version"] != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", doc["version"])
	}
	runs, ok := doc["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one run", doc["runs"])
	}
	run := runs[0].(map[string]any)
	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "ccube-lint" {
		t.Errorf("tool.driver.name = %v, want ccube-lint", driver["name"])
	}
	rules, ok := driver["rules"].([]any)
	if !ok || len(rules) == 0 {
		t.Fatal("tool.driver.rules is empty: rule metadata is required")
	}
	ruleIDs := make([]string, len(rules))
	for i, r := range rules {
		rm := r.(map[string]any)
		id, _ := rm["id"].(string)
		if id == "" {
			t.Fatalf("rule %d has no id: %v", i, r)
		}
		sd, ok := rm["shortDescription"].(map[string]any)
		if !ok || sd["text"] == "" {
			t.Errorf("rule %s has no shortDescription.text", id)
		}
		ruleIDs[i] = id
	}
	results, ok := run["results"].([]any)
	if !ok || len(results) != 2 {
		t.Fatalf("results = %v, want 2", run["results"])
	}
	for _, r := range results {
		rm := r.(map[string]any)
		ruleID, _ := rm["ruleId"].(string)
		idx := int(rm["ruleIndex"].(float64))
		if idx < 0 || idx >= len(ruleIDs) || ruleIDs[idx] != ruleID {
			t.Errorf("ruleIndex %d does not point at ruleId %q in the rules array", idx, ruleID)
		}
		if rm["level"] != "error" {
			t.Errorf("result level = %v, want error", rm["level"])
		}
		msg, ok := rm["message"].(map[string]any)
		if !ok || msg["text"] == "" {
			t.Error("result has no message.text")
		}
		locs, ok := rm["locations"].([]any)
		if !ok || len(locs) == 0 {
			t.Fatal("result has no locations")
		}
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		art := phys["artifactLocation"].(map[string]any)
		if art["uri"] == "" {
			t.Error("physicalLocation.artifactLocation.uri is empty")
		}
		region := phys["region"].(map[string]any)
		if region["startLine"].(float64) < 1 {
			t.Error("region.startLine must be 1-based")
		}
	}
}
