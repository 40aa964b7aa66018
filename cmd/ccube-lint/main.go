// Command ccube-lint enforces repo-specific idioms that go vet cannot know
// about. It is a thin driver over the internal/lint framework: rules live in
// internal/lint as self-registering analyzers sharing one type-checked load
// of each package; this command only parses flags, selects a reporter, and
// maps outcomes to exit codes.
//
// The seven rules (see `ccube-lint -rules` or internal/lint's rule files):
//
//	no-sleep, lock-pairing, kernel-goroutine, goroutine-leak,
//	metrics-cardinality, virtual-time, unchecked-engine-err
//
// Inline suppressions: `//lint:ignore <rule> <reason>` on the offending
// line or the line above. The reason is mandatory.
//
// Usage:
//
//	ccube-lint [-C dir] [-format text|sarif] [-rules] [packages...]
//
// Arguments accept the mixed forms of go tooling: "./...", directories, or
// individual .go files; no arguments means the whole module. Test files are
// exempt from all rules. Exit status 1 when any issue is found, 2 on load
// errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ccube/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccube-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "text", "output format: text or sarif")
	listRules := fs.Bool("rules", false, "list registered rules and exit")
	dir := fs.String("C", ".", "module root to lint (directory containing go.mod)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listRules {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-22s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	loader, err := lint.NewLoader(*dir)
	if err != nil {
		fmt.Fprintf(stderr, "ccube-lint: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "ccube-lint: %v\n", err)
		return 2
	}
	loadErrs := 0
	for _, p := range pkgs {
		for _, te := range p.TypeErrors {
			fmt.Fprintf(stderr, "ccube-lint: type error: %v\n", te)
			loadErrs++
		}
	}
	if loadErrs > 0 {
		// Typed analyzers cannot be trusted over a tree that does not
		// type-check; refuse rather than lint blind.
		return 2
	}

	res := lint.Run(pkgs, nil)
	if err := lint.Write(stdout, res, lint.Format(*format)); err != nil {
		fmt.Fprintf(stderr, "ccube-lint: %v\n", err)
		return 2
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}
