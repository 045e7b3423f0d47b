package simlint

import (
	"go/ast"
	"go/types"
)

// NewAbortFlow returns the abortflow analyzer. HTM aborts travel as
// panics carrying a pooled *htm.abortSignal that htm.Thread.Try recovers
// and converts to a Status. Any other deferred recover() must classify
// the recovered value (htm.IsAbortSignal or a type assertion against the
// signal) or re-raise it; swallowing the signal would silently corrupt
// the transaction protocol. The pooled payload is reused by the next
// abort on the same thread, so a handler must not retain it past its own
// scope.
func NewAbortFlow() *Analyzer {
	a := &Analyzer{
		Name: "abortflow",
		Doc:  "every deferred recover() must classify-and-rethrow the HTM abort signal and must not retain the pooled payload",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				d, ok := n.(*ast.DeferStmt)
				if !ok {
					return true
				}
				lit, ok := d.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true
				}
				rec := findRecover(pass, lit.Body)
				if rec == nil {
					return true
				}
				checkHandler(pass, lit, rec)
				checkRetention(pass, lit)
				return false
			})
		}
		return nil
	}
	return a
}

// findRecover returns the recover() call statement-level binding inside a
// deferred handler body, or nil if the handler does not recover.
func findRecover(pass *Pass, body *ast.BlockStmt) *ast.CallExpr {
	var rec *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if rec != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(pass, call, "recover") {
			rec = call
			return false
		}
		return true
	})
	return rec
}

// checkHandler verifies the classify-and-rethrow discipline of one
// recover handler.
func checkHandler(pass *Pass, lit *ast.FuncLit, rec *ast.CallExpr) {
	recVars := recoveredObjects(pass, lit.Body)
	rethrows := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBuiltin(pass, call, "panic") || len(call.Args) != 1 {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if recVars[pass.TypesInfo.Uses[id]] {
				rethrows = true
			}
		}
		// panic(recover()) directly.
		if inner, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok && inner == rec {
			rethrows = true
		}
		return true
	})
	if !rethrows && !classifies(pass, lit) {
		pass.Report(rec.Pos(), "recover() may swallow the HTM abort signal; classify it (htm.IsAbortSignal or a type assertion against the signal) and re-panic what this handler does not own")
	}
}

// checkRetention verifies that the recovered value (potentially the
// pooled *abortSignal, reused by the thread's next abort) does not escape
// the handler: it must not be assigned to anything declared outside the
// handler body.
func checkRetention(pass *Pass, lit *ast.FuncLit) {
	recVars := recoveredObjects(pass, lit.Body)
	local := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	isRecovered := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && recVars[pass.TypesInfo.Uses[id]]
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) || !isRecovered(rhs) {
				continue
			}
			switch lhs := ast.Unparen(as.Lhs[i]).(type) {
			case *ast.Ident:
				if lhs.Name == "_" || local[pass.TypesInfo.Defs[lhs]] {
					continue
				}
				if obj := pass.TypesInfo.Uses[lhs]; obj != nil && !local[obj] {
					pass.Report(as.Pos(), "recovered abort payload is retained past the handler (assigned to %s): the pooled *abortSignal is reused by the thread's next abort; copy the fields you need instead", lhs.Name)
				}
			default:
				// Field, index or dereference store: escapes the handler.
				pass.Report(as.Pos(), "recovered abort payload is retained past the handler: the pooled *abortSignal is reused by the thread's next abort; copy the fields you need instead")
			}
		}
		return true
	})
}

// recoveredObjects returns the objects bound (directly or by re-binding)
// to recover()'s result inside body.
func recoveredObjects(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			bind := func() {
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := pass.TypesInfo.Defs[id]; obj != nil {
						out[obj] = true
					} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
						out[obj] = true
					}
				}
			}
			switch rhs := ast.Unparen(rhs).(type) {
			case *ast.CallExpr:
				if isBuiltin(pass, rhs, "recover") {
					bind()
				}
			case *ast.Ident:
				if out[pass.TypesInfo.Uses[rhs]] {
					bind()
				}
			case *ast.TypeAssertExpr:
				if id, ok := ast.Unparen(rhs.X).(*ast.Ident); ok && out[pass.TypesInfo.Uses[id]] {
					bind()
				}
			}
		}
		return true
	})
	return out
}

// classifies reports whether the recover handler lit classifies the
// recovered value against the HTM abort signal: a type assertion or
// type-switch case naming the signal type, or a call to htm.IsAbortSignal.
func classifies(pass *Pass, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeAssertExpr:
			if n.Type != nil && isAbortSignalType(pass.TypesInfo.TypeOf(n.Type)) {
				found = true
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if t := pass.TypesInfo.TypeOf(e); t != nil && isAbortSignalType(t) {
					found = true
				}
			}
		case *ast.CallExpr:
			if fn := pass.FuncOf(n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == htmPath && fn.Name() == "IsAbortSignal" {
				found = true
			}
		}
		return !found
	})
	return found
}

// isAbortSignalType reports whether t is htm's abortSignal (or a pointer
// to it).
func isAbortSignalType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "abortSignal" && obj.Pkg() != nil && obj.Pkg().Path() == htmPath
}
