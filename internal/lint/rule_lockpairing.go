package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

func init() {
	Register(&Analyzer{
		Name: "lock-pairing",
		Doc: "a function that calls X.Lock() (or X.TryLock()) must also contain " +
			"an X.Unlock() somewhere in its body, and vice versa; presence-based, " +
			"not count-based, so multi-exit functions pass while a leaked lock " +
			"fails. Function literals are separate scopes, except literals " +
			"registered as deferred cleanups (t.Cleanup, sync.OnceFunc), which " +
			"pair with the function that registers them",
		Run: runLockPairing,
	})
}

// cleanupRegistrars are callees whose function-literal argument runs as a
// delayed extension of the registering function: an Unlock inside them pairs
// with the enclosing function's Lock. Method matches are by name (t.Cleanup
// on *testing.T or any test helper); sync.OnceFunc/OnceValue are matched as
// package functions.
func isCleanupRegistrar(info *types.Info, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Cleanup" {
			return true
		}
		if obj := info.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			return obj.Name() == "OnceFunc" || obj.Name() == "OnceValue" || obj.Name() == "OnceValues"
		}
		// Unresolved sync.OnceFunc still matches syntactically.
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == "sync" {
			name := fun.Sel.Name
			return name == "OnceFunc" || name == "OnceValue" || name == "OnceValues"
		}
	}
	return false
}

// lockUse records where one receiver's lock calls appear within a scope.
type lockUse struct {
	lock, unlock token.Pos // first occurrence, or token.NoPos
}

func runLockPairing(p *Pass) {
	info := p.TypesInfo()
	for _, file := range p.Files() {
		// Literals passed to cleanup registrars merge into the registering
		// function's scope.
		merged := map[*ast.FuncLit]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isCleanupRegistrar(info, call) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					merged[lit] = true
				}
			}
			return true
		})

		checkScope := func(body *ast.BlockStmt) {
			uses := map[string]*lockUse{}
			ast.Inspect(body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body && !merged[lit] {
					return false // separate scope
				}
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				name := sel.Sel.Name
				if name != "Lock" && name != "TryLock" && name != "Unlock" {
					return true
				}
				key := types.ExprString(sel.X)
				u := uses[key]
				if u == nil {
					u = &lockUse{}
					uses[key] = u
				}
				if name == "Unlock" {
					if u.unlock == token.NoPos {
						u.unlock = call.Pos()
					}
				} else if u.lock == token.NoPos {
					u.lock = call.Pos()
				}
				return true
			})
			keys := make([]string, 0, len(uses))
			for k := range uses {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				u := uses[k]
				if u.lock != token.NoPos && u.unlock == token.NoPos {
					p.Reportf(u.lock, "%s.Lock() with no %s.Unlock() in the same function", k, k)
				}
				if u.unlock != token.NoPos && u.lock == token.NoPos {
					p.Reportf(u.unlock, "%s.Unlock() with no %s.Lock() in the same function", k, k)
				}
			}
		}
		funcScopes(file, func(body *ast.BlockStmt, lit *ast.FuncLit) {
			if lit != nil && merged[lit] {
				return // checked as part of the registering function
			}
			checkScope(body)
		})
	}
}
