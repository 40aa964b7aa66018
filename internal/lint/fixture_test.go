package lint

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// TestFixtures runs every registered analyzer over the fixture module in
// testdata/src and compares the surviving diagnostics against the inline
// `// want "regexp"` expectations, analysistest-style. Regexps match against
// "<rule>: <message>". Each of the eight rules has at least one firing case
// here and one //lint:ignore-suppressed case (counted at the bottom).
func TestFixtures(t *testing.T) {
	loader, err := NewLoader("testdata/src")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 5 {
		t.Errorf("loaded %d fixture packages, want 5", len(pkgs))
	}
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			t.Errorf("fixture %s: type error: %v", p.ImportPath, te)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	res := Run(pkgs, nil)

	// Collect `// want "rx" ["rx" ...]` expectations, keyed by file:line.
	type want struct {
		key string
		rx  *regexp.Regexp
		hit bool
	}
	var wants []*want
	quoted := regexp.MustCompile(`"([^"]*)"`)
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, "want ") {
						continue
					}
					pos := p.Fset.Position(c.Slash)
					for _, m := range quoted.FindAllStringSubmatch(text, -1) {
						wants = append(wants, &want{
							key: fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
							rx:  regexp.MustCompile(m[1]),
						})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("no // want expectations found in testdata/src")
	}

	for _, d := range res.Diagnostics {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		text := d.Rule + ": " + d.Message
		matched := false
		for _, w := range wants {
			if !w.hit && w.key == key && w.rx.MatchString(text) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", key, text)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("expected diagnostic at %s matching %q, got none", w.key, w.rx)
		}
	}

	// One suppressed case per rule: eight //lint:ignore directives, each
	// silencing exactly one diagnostic.
	if res.Suppressed != 8 {
		t.Errorf("suppressed = %d, want 8 (one silenced case per rule)", res.Suppressed)
	}
}
