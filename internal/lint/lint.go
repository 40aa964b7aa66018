// Package lint is a go/analysis-style static analysis framework built only
// on the standard library (go/ast, go/types, go/importer). It exists so
// repo-specific invariants — "simulated time never comes from the wall
// clock", "every goroutine has a join path", "metrics labels stay bounded" —
// are enforced by the build, the same way internal/schedcheck enforces
// schedule-level invariants before anything executes.
//
// Each rule is a self-registering *Analyzer. Analyzers share one
// type-checked load of every package (each file is parsed once and each
// package type-checked once, with the *types.Info shared), report
// *Diagnostic values, and honor inline suppressions of the form
//
//	//lint:ignore <rule> <reason>
//
// placed on the offending line or on the line immediately above it. The
// reason is mandatory: a suppression without one is itself a diagnostic.
//
// Reporters render a Result as plain text or SARIF 2.1.0 (see report.go).
// The ccube-lint command is a thin driver over Load + Run.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named rule. Analyzers are stateless; all per-run state
// lives in the Pass.
type Analyzer struct {
	// Name is the rule identifier used in reports and //lint:ignore
	// directives (kebab-case, e.g. "virtual-time").
	Name string

	// Doc is a one-paragraph description of what the rule enforces and why.
	Doc string

	// Match filters which packages the analyzer runs on, by slash-separated
	// package directory relative to the module root (e.g. "internal/des").
	// nil matches every package.
	Match func(relDir string) bool

	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass)
}

// registry holds every analyzer registered at init time.
var registry = map[string]*Analyzer{}

// Register adds an analyzer to the global registry; it panics on duplicate
// names so two rules can never silently shadow each other.
func Register(a *Analyzer) {
	if a.Name == "" || a.Run == nil {
		panic("lint: Register of unnamed analyzer or nil Run")
	}
	if _, dup := registry[a.Name]; dup {
		panic("lint: duplicate analyzer " + a.Name)
	}
	registry[a.Name] = a
}

// All returns every registered analyzer, sorted by name.
func All() []*Analyzer {
	out := make([]*Analyzer, 0, len(registry))
	for _, a := range registry {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Diagnostic is one finding.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Fset returns the shared file set.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed files (tests excluded).
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the shared type-check results for the package. It is
// never nil, but may be sparsely populated if the package had type errors.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Result is the outcome of one lint run.
type Result struct {
	Diagnostics []Diagnostic // surviving (unsuppressed), sorted by position
	Suppressed  int          // count silenced by //lint:ignore directives
	NumPackages int
	NumFiles    int
}

// Run executes the given analyzers over the loaded packages, applies
// suppressions, and returns position-sorted diagnostics. A nil analyzers
// slice runs every registered analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	if analyzers == nil {
		analyzers = All()
	}
	res := &Result{NumPackages: len(pkgs)}
	var raw []Diagnostic
	for _, pkg := range pkgs {
		res.NumFiles += len(pkg.Files)
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.RelDir) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &raw}
			a.Run(pass)
		}
		// Malformed directives are diagnostics in their own right: a
		// suppression without a reason silences nothing.
		raw = append(raw, pkg.directiveErrors...)
	}
	for _, d := range raw {
		if suppressed(pkgs, d) {
			res.Suppressed++
			continue
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return res
}

// suppressed reports whether an //lint:ignore directive covers d.
func suppressed(pkgs []*Package, d Diagnostic) bool {
	for _, pkg := range pkgs {
		if sup, ok := pkg.suppressions[d.Pos.Filename]; ok {
			if rules, ok := sup[d.Pos.Line]; ok && (rules[d.Rule] || rules["*"]) {
				return true
			}
		}
	}
	return false
}

// --- suppression directives -------------------------------------------------

// directivePrefix is the inline suppression marker.
const directivePrefix = "//lint:ignore"

// collectSuppressions scans a file's comments for //lint:ignore directives.
// A directive suppresses the named rules (comma-separated; "*" wildcards) on
// its own line and on the immediately following line, covering both the
// trailing form (`stmt //lint:ignore rule why`) and the standalone form
// (directive on its own line above the statement). It returns
// line -> rule set, plus diagnostics for malformed directives.
func collectSuppressions(fset *token.FileSet, file *ast.File) (map[int]map[string]bool, []Diagnostic) {
	out := map[int]map[string]bool{}
	var errs []Diagnostic
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
			pos := fset.Position(c.Slash)
			if len(fields) < 2 {
				errs = append(errs, Diagnostic{
					Rule: "lint-directive", Pos: pos,
					Message: "malformed //lint:ignore directive: want `//lint:ignore <rule> <reason>` (the reason is mandatory)",
				})
				continue
			}
			rules := map[string]bool{}
			for _, r := range strings.Split(fields[0], ",") {
				rules[r] = true
			}
			apply := func(line int) {
				if out[line] == nil {
					out[line] = map[string]bool{}
				}
				for r := range rules {
					out[line][r] = true
				}
			}
			apply(pos.Line)
			apply(pos.Line + 1)
		}
	}
	return out, errs
}
