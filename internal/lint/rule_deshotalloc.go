package lint

import (
	"go/ast"
	"strings"
)

func init() {
	Register(&Analyzer{
		Name: "des-hot-alloc",
		Doc: "the DES engine's hot functions (internal/des: event scheduling, the " +
			"batched drain, the graph run loop, resource grants) and the serve " +
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
// simulator's per-event / per-task fast path, where an allocation multiplies
// by the event count. The zero-alloc contract is enforced dynamically by the
// AllocsPerRun tests; this rule enforces the paper trail.
var desHotFuncs = map[string]bool{
	// des.go / graph.go — the run loops (Engine.RunCtx, Graph.RunCtx); the
	// cancellation checkpoint must stay allocation-free too
	"RunCtx": true,
	// des.go — event engine
	"At": true, "After": true,
	"step": true, "recycle": true, "recycleQuiet": true, "push": true,
	"pop": true, "siftDown": true, "Reserve": true,
	// des.go — batched equal-timestamp drain
	"popRun": true, "fireBatch": true, "sortBySeq": true,
	"siftEntryDown": true, "flushBatchMetrics": true,
	// graph.go — task graph construction and run-loop helpers
	"Add": true, "AddDeps": true, "buildAdjacency": true,
	"dependents": true, "readyPush": true, "readyPop": true,
	"Reset": true, "ReserveEdges": true,
	// resource.go — per-grant path
	"reserve": true, "Prealloc": true,
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
						`%s in DES hot function %s without an "amortized"/"prealloc" same-line comment; the engine's steady state must not allocate`,
						id.Name, fn.Name.Name)
				}
				return true
			})
		}
	}
}
