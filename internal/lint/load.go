package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package shared by every analyzer.
// Parsing and type-checking happen exactly once per package per run; the
// previous ccube-lint re-parsed every file for every rule, which is the
// quadratic cost the Loader exists to remove.
type Package struct {
	// RelDir is the slash-separated package directory relative to the
	// module root, e.g. "internal/des" or "cmd/ccube-sim"; "." for the root.
	RelDir string
	// ImportPath is the module-qualified import path ("ccube/internal/des").
	ImportPath string
	// ModulePath is the owning module's path ("ccube"), for rules that need
	// to distinguish module-local objects from imported ones.
	ModulePath string

	Fset  *token.FileSet
	Files []*ast.File // non-test files, in filename order

	Types *types.Package // nil only if type-checking failed outright
	Info  *types.Info

	// TypeErrors collects type-check problems. Typed analyzers degrade
	// gracefully (unresolved objects just don't match), but the driver
	// surfaces these so a broken tree can't silently lint clean.
	TypeErrors []error

	suppressions    map[string]map[int]map[string]bool // filename -> line -> rules
	directiveErrors []Diagnostic
}

// Loader loads and type-checks packages beneath one module root, caching by
// import path so shared dependencies (internal/des under everything) are
// checked once per run. It implements types.Importer for intra-module
// imports and delegates the standard library to the compiler's export data.
type Loader struct {
	ModuleRoot string // absolute path of the directory containing go.mod
	ModulePath string // module path from go.mod, e.g. "ccube"

	fset    *token.FileSet
	std     types.Importer
	exports map[string]string   // import path -> export data file (lookupExport)
	cache   map[string]*Package // by import path
	loading map[string]bool     // import cycle guard
}

// NewLoader returns a loader rooted at the given module directory. The
// module path is read from go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	l := &Loader{
		ModuleRoot: abs,
		ModulePath: modPath,
		fset:       token.NewFileSet(),
		cache:      map[string]*Package{},
		loading:    map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.lookupExport)
	return l, nil
}

// lookupExport opens the compiler export data for a non-module import
// path. The default importer finds each package's file with its own
// `go list -export` process, a fork per package that dominates a cold
// lint; instead the first lookup resolves every standard-library package
// the module's files import with one batched `go list`, and a path outside
// that batch costs one more.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	if _, ok := l.exports[path]; !ok {
		paths := []string{path}
		if l.exports == nil {
			l.exports = map[string]string{}
			paths = append(paths, l.externalImports()...)
		}
		if err := l.listExports(paths); err != nil {
			return nil, err
		}
	}
	file := l.exports[path]
	if file == "" {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// listExports records the export data files of paths with one `go list`.
// A path go list cannot build records no file.
func (l *Loader) listExports(paths []string) error {
	args := append([]string{"list", "-e", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), args...)
	cmd.Dir = l.ModuleRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("lint: go list -export: %v: %s", err, stderr.Bytes())
	}
	for _, p := range paths {
		l.exports[p] = ""
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "\t"); ok {
			l.exports[path] = file
		}
	}
	return nil
}

// externalImports returns the sorted import paths outside the module that
// its non-test files name.
func (l *Loader) externalImports() []string {
	dirs, _ := goDirsUnder(l.ModuleRoot)
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				continue
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if path != "C" && path != "unsafe" && path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
					seen[path] = true
				}
			}
		}
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// modulePath extracts the module path from a go.mod file without depending
// on golang.org/x/mod.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module line in %s", gomod)
}

// Import implements types.Importer: module-local paths are loaded from
// source (recursively, through the cache); everything else — the standard
// library — comes from compiler export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		if rel == "" {
			rel = "."
		}
		pkg, err := l.loadDir(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("lint: package %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load resolves the mixed argument forms the old ccube-lint accepted —
// "./...", directories, individual .go files — into type-checked packages.
// With no arguments it loads the whole module.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirSet := map[string]bool{}
	for _, arg := range patterns {
		if root, ok := strings.CutSuffix(arg, "..."); ok {
			root = filepath.Clean(strings.TrimSuffix(root, "/"))
			if root == "" || root == "." {
				root = l.ModuleRoot
			} else if !filepath.IsAbs(root) {
				root = filepath.Join(l.ModuleRoot, root)
			}
			dirs, err := goDirsUnder(root)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				dirSet[d] = true
			}
			continue
		}
		if !filepath.IsAbs(arg) {
			arg = filepath.Join(l.ModuleRoot, arg)
		}
		fi, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if fi.IsDir() {
			if hasGoFiles(arg) {
				dirSet[filepath.Clean(arg)] = true
			}
			continue
		}
		dirSet[filepath.Dir(arg)] = true
	}
	dirs := make([]string, 0, len(dirSet))
	for d := range dirSet {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, d := range dirs {
		pkg, err := l.loadDir(d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// skipDirs are directory names never descended into.
var skipDirs = map[string]bool{
	".git": true, "testdata": true, "vendor": true,
	".github": true, "node_modules": true, ".claude": true,
}

// goDirsUnder walks root collecting every directory containing at least one
// non-test .go file.
func goDirsUnder(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDirs[d.Name()] {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				dirs = append(dirs, path)
			}
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// loadDir parses and type-checks the package in one directory, through the
// cache. Test files (_test.go) are exempt from all rules and excluded from
// the load.
func (l *Loader) loadDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return nil, err
	}
	rel = filepath.ToSlash(rel)
	importPath := l.ModulePath
	if rel != "." {
		importPath = l.ModulePath + "/" + rel
	}
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var filenames []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		filenames = append(filenames, filepath.Join(dir, name))
	}
	sort.Strings(filenames)
	if len(filenames) == 0 {
		return nil, nil
	}

	pkg := &Package{
		RelDir:       rel,
		ImportPath:   importPath,
		ModulePath:   l.ModulePath,
		Fset:         l.fset,
		suppressions: map[string]map[int]map[string]bool{},
	}
	for _, fn := range filenames {
		file, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, file)
		sup, derrs := collectSuppressions(l.fset, file)
		pkg.suppressions[fn] = sup
		pkg.directiveErrors = append(pkg.directiveErrors, derrs...)
	}

	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	// Check returns the package even when errors were reported; typed
	// analyzers work off whatever resolved.
	tpkg, _ := conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg

	l.cache[importPath] = pkg
	return pkg, nil
}
