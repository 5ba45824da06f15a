package lint

import (
	"go/ast"
	"go/types"
)

// isPushCall reports whether call invokes a method named Push with exactly
// one result of type bool — the rel.Sink shape. Matching on the method
// shape rather than the concrete interface keeps the analyzers applicable
// to every sink-like type (the engine's gauge sink, fdq's wrappers, test
// doubles) without import cycles into internal/rel.
func isPushCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Push" {
		return false
	}
	obj, ok := info.Uses[sel.Sel]
	if !ok {
		return false
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Results().Len() != 1 {
		return false
	}
	basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// isContextParam reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// contextParamName returns the name of ft's context.Context parameter, or
// "" if there is none (or it is blank — a blank ctx cannot be consulted,
// so the function has opted out of cancellation).
func contextParamName(info *types.Info, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}

// hasSinkParam reports whether ft takes a parameter whose type has a
// Push(...) bool method — the streaming-executor signature shape.
func hasSinkParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		if hasPushMethod(tv.Type) {
			return true
		}
	}
	return false
}

func hasPushMethod(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		fn := ms.At(i).Obj()
		if fn.Name() != "Push" {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Results().Len() != 1 {
			continue
		}
		basic, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
		if ok && basic.Kind() == types.Bool {
			return true
		}
	}
	return false
}

// containsExit reports whether the subtree rooted at n contains a
// control-flow exit — break, return, goto, or a panic/os.Exit call — not
// nested inside a function literal. It is the check for "the failed-Push
// branch actually stops the loop".
func containsExit(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if m.Tok.String() == "break" || m.Tok.String() == "goto" {
				found = true
			}
		case *ast.ReturnStmt:
			found = true
		case *ast.CallExpr:
			switch fun := m.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "panic" {
					found = true
				}
			case *ast.SelectorExpr:
				if x, ok := fun.X.(*ast.Ident); ok && x.Name == "os" && fun.Sel.Name == "Exit" {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// usesIdent reports whether the subtree references an identifier resolving
// to obj.
func usesIdent(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// eachFunc visits every function declaration and function literal in the
// package, handing the visitor its type and body.
func eachFunc(files []*ast.File, visit func(name string, ft *ast.FuncType, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					visit(n.Name.Name, n.Type, n.Body)
				}
			case *ast.FuncLit:
				visit("", n.Type, n.Body)
			}
			return true
		})
	}
}
