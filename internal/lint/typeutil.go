package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isWaitGroupType reports whether t (possibly behind a pointer) is
// sync.WaitGroup.
func isWaitGroupType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// moduleLocal reports whether obj is declared in a package of the given
// module (as opposed to the standard library or nowhere).
func moduleLocal(obj types.Object, modulePath string) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == modulePath || strings.HasPrefix(p, modulePath+"/")
}

// calleeObject resolves the function or method object a call invokes, or
// nil when the callee is dynamic (function value, unresolved, built-in).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Package-qualified call: pkg.Fn.
		return info.Uses[fun.Sel]
	}
	return nil
}

// funcReturnsErrorLast reports whether obj is a function whose final result
// is the error type.
func funcReturnsErrorLast(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// funcScopes walks every function body in the file — declared functions and
// function literals — calling fn with the enclosing callable's body. Each
// literal is visited once as its own scope.
func funcScopes(file *ast.File, fn func(body *ast.BlockStmt, decl *ast.FuncDecl, lit *ast.FuncLit)) {
	var outer *ast.FuncDecl
	ast.Inspect(file, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncDecl:
			outer = node
			if node.Body != nil {
				fn(node.Body, node, nil)
			}
		case *ast.FuncLit:
			fn(node.Body, outer, node)
		}
		return true
	})
}
