package lint

import (
	"go/ast"
	"go/types"
)

// Ctxloop enforces the executor cancellation contract (PR 5): a streaming
// executor — a function taking both a context.Context and a Sink — must
// observe cancellation inside its working loops, either by consulting ctx
// (ctx.Err(), ctx.Done(), or passing ctx to the work it delegates to) or
// by consulting a Push stop signal. Seeded by the pre-PR-5 executors,
// whose buffering inner loops (descent in internal/wcoj, the merge/filter
// passes in chainalg/csma/smalg) ran an unbounded amount of work after the
// consumer had already gone away.
//
// A loop is "working" when its body calls out to real work — any function
// or method call other than the exempt cheap accessors (len/cap-style
// size queries, append/copy plumbing, errors.Is classification). Bounded
// scratch loops (copying a row, summing arities) contain no calls and are
// not flagged. Worker-spawn loops are not flagged either: a go statement
// defers its work to a goroutine whose own loops are what must check.
//
// The check is per loop NEST: a working loop whose subtree — or any
// enclosing loop's subtree — contains a cancellation or stop check is
// satisfied, matching the codebase idiom of one interval check per nest
// (a work.Meter Check, which takes ctx). Only a nest with no check
// anywhere is flagged, at its outermost working loop.
var Ctxloop = &Analyzer{
	Name: "ctxloop",
	Doc:  "inner loops of streaming executors (ctx + Sink parameters) must contain a cancellation or Push-stop check",
	Run:  runCtxloop,
}

// ctxloopExemptCalls are method/function names whose calls do not make a
// loop "working": constant-time size accessors and slice plumbing that
// appear in bounded scratch loops.
var ctxloopExemptCalls = map[string]bool{
	"len": true, "cap": true, "append": true, "copy": true, "min": true,
	"max": true, "delete": true, "make": true, "new": true,
	"Len": true, "Arity": true, "Cap": true, "VarSet": true,
	"Contains": true, "Add": true, "Members": true, "Err": true, "Done": true,
	"Is": true, "As": true, "Float64": true,
}

func runCtxloop(pass *Pass) error {
	info := pass.TypesInfo
	eachFunc(pass.Files, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
		ctxName := contextParamName(info, ft)
		if ctxName == "" || !hasSinkParam(info, ft) {
			return
		}
		var ctxObj types.Object
		if scope, ok := info.Scopes[ft]; ok {
			ctxObj = scope.Lookup(ctxName)
		}
		if ctxObj == nil {
			return
		}
		ast.Inspect(body, func(n ast.Node) bool {
			var loopBody *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // its own signature decides; handled by eachFunc
			case *ast.ForStmt:
				loopBody = n.Body
			case *ast.RangeStmt:
				loopBody = n.Body
			default:
				return true
			}
			if loopBody == nil || !loopDoesWork(info, loopBody) {
				return true // descend: an inner loop may still do work via calls the outer exempts? no — subtree containment; but keep walking siblings
			}
			if usesIdent(info, loopBody, ctxObj) || loopConsultsPush(info, loopBody) {
				// The nest observes cancellation somewhere: accept the whole
				// nest (the codebase's one-interval-check-per-nest idiom).
				return false
			}
			pass.Reportf(n.Pos(), "executor loop nest has no cancellation check: consult %s (ctx.Err / ctx.Done / pass it down) or a Push stop signal in the nest", ctxName)
			return false // one finding per nest, at its outermost working loop
		})
	})
	return nil
}

// loopDoesWork reports whether the loop body (excluding nested function
// literals) contains a call beyond the exempt cheap accessors.
func loopDoesWork(info *types.Info, body *ast.BlockStmt) bool {
	work := false
	ast.Inspect(body, func(n ast.Node) bool {
		if work {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			// Spawning is not inline work; the goroutine's own loops are
			// checked through their function literal's signature.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Conversions are not work.
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if ctxloopExemptCalls[fun.Name] {
				return true
			}
		case *ast.SelectorExpr:
			if ctxloopExemptCalls[fun.Sel.Name] {
				return true
			}
		}
		work = true
		return false
	})
	return work
}

// loopConsultsPush reports whether the loop body contains a Push call in a
// consulted position (any position — sinkcheck separately guarantees the
// result is consulted and the stop propagated, so its mere presence means
// the loop stops when the sink does).
func loopConsultsPush(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isPushCall(info, call) {
			found = true
		}
		return !found
	})
	return found
}
