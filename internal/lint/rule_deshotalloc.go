package lint

import (
	"go/ast"
	"strings"
)

func init() {
	Register(&Analyzer{
		Name: "des-hot-alloc",
		Doc: "the DES hot functions (internal/des: the flat run loop, its column " +
			"sizing and successor-CSR linker, the radix ready queue, Graph " +
			"construction and block appends, and resource grants) and the serve " +
			"JSON fast path (internal/server: pooled buffers, key hashing) must " +
			"stay allocation-free in steady state; every make or append there " +
			"needs a same-line comment containing \"amortized\" or \"prealloc\" " +
			"explaining why the growth is not per-operation",
		Match: func(rel string) bool {
			return rel == "internal/des" || strings.HasPrefix(rel, "internal/des/") ||
				rel == "internal/server" || strings.HasPrefix(rel, "internal/server/")
		},
		Run: runDesHotAlloc,
	})
}

// desHotFuncs are the internal/des functions on (or reachable from) the
// simulator's per-task fast path, where an allocation multiplies by the task
// count. The zero-alloc contract is enforced dynamically by the
// AllocsPerRun tests; this rule enforces the paper trail.
var desHotFuncs = map[string]bool{
	// flat.go — the run loop (Flat.RunCtx, and Graph.RunCtx around it); the
	// cancellation checkpoint must stay allocation-free too
	"RunCtx": true,
	// flat.go — column sizing, resource binding and the successor-CSR linker
	"Reset": true, "size": true, "resize": true, "zeroed": true, "Bind": true,
	"SetEarliest": true, "Link": true,
	// radix.go — the ready queue
	"reset": true, "push": true, "pop": true, "place": true, "refill": true,
	"nowPush": true, "nowPop": true,
	// graph.go — task rows and the predecessor CSR, one task or one
	// schedule block at a time
	"Add": true, "AddBlock": true, "addRows": true, "extend": true, "Set": true,
	// resource.go — per-grant path
	"grant": true, "Prealloc": true,
	// internal/server — JSON fast path buffer pool and key hashing
	"getBuf": true, "putBuf": true, "encodeBody": true,
	"canonicalKey": true, "writeAPIError": true,
}

func runDesHotAlloc(p *Pass) {
	fset := p.Fset()
	for _, file := range p.Files() {
		annotated := map[int]bool{}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.ToLower(c.Text)
				if strings.Contains(text, "amortized") || strings.Contains(text, "prealloc") {
					annotated[fset.Position(c.Slash).Line] = true
				}
			}
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !desHotFuncs[fn.Name.Name] {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || (id.Name != "make" && id.Name != "append") {
					return true
				}
				if pos := fset.Position(call.Pos()); !annotated[pos.Line] {
					p.Reportf(call.Pos(),
						`%s in DES hot function %s without an "amortized"/"prealloc" same-line comment; the run loop's steady state must not allocate`,
						id.Name, fn.Name.Name)
				}
				return true
			})
		}
	}
}
