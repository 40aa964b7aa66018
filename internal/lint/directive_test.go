package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parsePkg builds a minimal *Package from source, without type-checking —
// enough for directive and Run-plumbing tests that use syntactic analyzers.
func parsePkg(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sup, derrs := collectSuppressions(fset, file)
	return &Package{
		RelDir:     "internal/x",
		ImportPath: "ccube/internal/x",
		ModulePath: "ccube",
		Fset:       fset,
		Files:      []*ast.File{file},
		Info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		suppressions:    map[string]map[int]map[string]bool{"fixture.go": sup},
		directiveErrors: derrs,
	}
}

// reportAtLines returns an analyzer that reports one diagnostic per given
// line, under the given rule name.
func reportAtLines(rule string, lines ...int) *Analyzer {
	return &Analyzer{
		Name: rule,
		Doc:  "test analyzer",
		Run: func(p *Pass) {
			tf := p.Fset().File(p.Files()[0].Pos())
			for _, line := range lines {
				p.Reportf(tf.LineStart(line), "synthetic finding")
			}
		},
	}
}

func TestSuppressionCoversOwnAndNextLine(t *testing.T) {
	pkg := parsePkg(t, `package x

func f() {
	//lint:ignore test-rule the next line is fine
	_ = 1
	_ = 2
}
`)
	// Directive on line 4: lines 4 and 5 suppressed, line 6 not.
	res := Run([]*Package{pkg}, []*Analyzer{reportAtLines("test-rule", 4, 5, 6)})
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Pos.Line != 6 {
		t.Fatalf("diagnostics = %+v, want exactly one on line 6", res.Diagnostics)
	}
	if res.Suppressed != 2 {
		t.Fatalf("suppressed = %d, want 2", res.Suppressed)
	}
}

func TestSuppressionRuleListAndWildcard(t *testing.T) {
	pkg := parsePkg(t, `package x

func f() {
	_ = 1 //lint:ignore rule-a,rule-b both silenced here
	_ = 2 //lint:ignore * everything silenced here
}
`)
	res := Run([]*Package{pkg}, []*Analyzer{
		reportAtLines("rule-a", 4, 5),
		reportAtLines("rule-b", 4),
		reportAtLines("rule-c", 4, 5),
	})
	// Line 4: rule-a and rule-b suppressed by the list, rule-c survives.
	// Line 5: wildcard suppresses everything.
	if len(res.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %+v, want exactly one (rule-c line 4)", res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if d.Rule != "rule-c" || d.Pos.Line != 4 {
		t.Fatalf("surviving diagnostic = %+v, want rule-c on line 4", d)
	}
	if res.Suppressed != 4 {
		t.Fatalf("suppressed = %d, want 4", res.Suppressed)
	}
}

func TestMalformedDirectiveIsDiagnostic(t *testing.T) {
	pkg := parsePkg(t, `package x

func f() {
	_ = 1 //lint:ignore no-sleep
}
`)
	res := Run([]*Package{pkg}, []*Analyzer{})
	if len(res.Diagnostics) != 1 {
		t.Fatalf("diagnostics = %+v, want exactly one lint-directive error", res.Diagnostics)
	}
	d := res.Diagnostics[0]
	if d.Rule != "lint-directive" || !strings.Contains(d.Message, "reason is mandatory") {
		t.Fatalf("diagnostic = %+v, want lint-directive about the mandatory reason", d)
	}
}

func TestMatchFiltersPackages(t *testing.T) {
	pkg := parsePkg(t, `package x

func f() {
	_ = 1
}
`)
	ran := 0
	a := &Analyzer{
		Name:  "match-test",
		Doc:   "test analyzer",
		Match: func(rel string) bool { return rel == "internal/other" },
		Run:   func(p *Pass) { ran++ },
	}
	Run([]*Package{pkg}, []*Analyzer{a})
	if ran != 0 {
		t.Fatalf("analyzer ran %d times on a non-matching package, want 0", ran)
	}
	a.Match = func(rel string) bool { return rel == "internal/x" }
	Run([]*Package{pkg}, []*Analyzer{a})
	if ran != 1 {
		t.Fatalf("analyzer ran %d times on a matching package, want 1", ran)
	}
}

func TestRegistryHasAllRules(t *testing.T) {
	want := []string{
		"des-hot-alloc", "goroutine-leak",
		"kernel-goroutine", "lock-pairing", "metrics-cardinality",
		"no-sleep", "unchecked-engine-err", "virtual-time",
	}
	for _, name := range want {
		if Lookup(name) == nil {
			t.Errorf("rule %q is not registered", name)
		}
	}
	if got := len(All()); got != len(want) {
		t.Errorf("registry has %d analyzers, want %d", got, len(want))
	}
}
