package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The driver is exercised against the framework's fixture module, which
// contains known violations, and against the real module, which must be
// clean. Rule logic itself is tested in internal/lint.

const fixtureRoot = "../../internal/lint/testdata/src"

func TestDriverFindsFixtureViolations(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", fixtureRoot, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (fixture module has violations); stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "[no-sleep]") || !strings.Contains(out, "ccube-lint:") {
		t.Errorf("text output missing diagnostics or summary:\n%s", out)
	}
}

func TestDriverCleanSubtree(t *testing.T) {
	// The metrics stub inside the fixture module has no violations.
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", fixtureRoot, "internal/metrics"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, stdout.String(), stderr.String())
	}
}

func TestDriverSARIF(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", fixtureRoot, "-format", "sarif", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if doc["version"] != "2.1.0" {
		t.Errorf("SARIF version = %v, want 2.1.0", doc["version"])
	}
}

func TestDriverRuleListing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-rules"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	rules := []string{
		"no-sleep", "lock-pairing", "kernel-goroutine", "des-hot-alloc",
		"goroutine-leak", "metrics-cardinality", "virtual-time",
		"unchecked-engine-err",
	}
	for _, rule := range rules {
		if !strings.Contains(stdout.String(), rule) {
			t.Errorf("-rules output missing %q", rule)
		}
	}
	if got := strings.Count(strings.TrimSpace(stdout.String()), "\n") + 1; got != len(rules) {
		t.Errorf("-rules lists %d rules, want %d", got, len(rules))
	}
}

func TestDriverUnknownFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", fixtureRoot, "-format", "xml", "internal/metrics"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2 for unknown format", code)
	}
}

func TestDriverBadModuleRoot(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "/nonexistent-module-root"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2 for missing go.mod", code)
	}
}
