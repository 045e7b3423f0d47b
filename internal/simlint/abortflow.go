package simlint

import (
	"go/ast"
	"go/types"
)

// MayAbortFact marks a function that may panic with the HTM abort signal
// (*htm.abortSignal), directly or through anything it calls. It is
// exported on function objects so reachability propagates across packages.
type MayAbortFact struct{ May bool }

func (*MayAbortFact) AFact() {}

// funcAbortInfo is the per-function summary abortflow builds from syntax.
type funcAbortInfo struct {
	obj          *types.Func
	panicsAbort  bool // contains panic(x) where x is the abort signal
	callsUnknown bool // calls a function value or interface method
	callees      []*types.Func
	classified   bool // has a recover handler that classifies the signal
	mayAbort     bool
}

// NewAbortFlow returns the abortflow analyzer. HTM aborts travel as
// panics carrying a pooled *htm.abortSignal that htm.Thread.Try recovers
// and converts to a Status. Any other recover() on a path that may see
// that panic must classify the recovered value (htm.IsAbortSignal or a
// type assertion against the signal) and re-raise what it does not
// handle; swallowing the signal would silently corrupt the transaction
// protocol. The pooled payload is reused by the next abort on the same
// thread, so a handler must not retain it past its own scope.
func NewAbortFlow() *Analyzer {
	a := &Analyzer{
		Name: "abortflow",
		Doc:  "every recover() reachable from transaction execution must classify-and-rethrow the HTM abort signal and must not retain the pooled payload",
	}
	a.Run = runAbortFlow
	return a
}

func runAbortFlow(pass *Pass) error {
	infos := make(map[*types.Func]*funcAbortInfo)
	var order []*funcAbortInfo
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			info := summarizeAbort(pass, fd, obj)
			infos[obj] = info
			order = append(order, info)
		}
	}

	// Fixpoint over the package-local call graph; callees in imported
	// packages contribute through their exported facts.
	mayAbortCallee := func(fn *types.Func) bool {
		if local, ok := infos[fn]; ok {
			return local.mayAbort
		}
		var fact MayAbortFact
		if pass.ImportObjectFact(fn, &fact) {
			return fact.May
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, info := range order {
			if info.mayAbort || info.classified {
				continue
			}
			may := info.panicsAbort || info.callsUnknown
			for _, c := range info.callees {
				if may {
					break
				}
				may = mayAbortCallee(c)
			}
			if may {
				info.mayAbort = true
				changed = true
			}
		}
	}
	for _, info := range order {
		pass.ExportObjectFact(info.obj, &MayAbortFact{May: info.mayAbort})
	}

	// Check every recover handler whose guarded scope may see the abort
	// signal.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRecoverHandlers(pass, fd.Body, mayAbortCallee)
		}
	}
	return nil
}

// summarizeAbort builds the call/panic summary of one function. Function
// literals created inside the body are attributed to the enclosing
// function (an over-approximation: creating a closure is treated like
// running it).
func summarizeAbort(pass *Pass, fd *ast.FuncDecl, obj *types.Func) *funcAbortInfo {
	info := &funcAbortInfo{obj: obj}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			if lit, ok := n.(*ast.FuncLit); ok && isClassifyingHandlerLit(pass, lit) {
				info.classified = true
			}
			return true
		}
		if isPanicCall(pass, call) {
			if len(call.Args) == 1 && isAbortSignalType(pass.TypesInfo.TypeOf(call.Args[0])) {
				info.panicsAbort = true
			}
			return true
		}
		fn := pass.FuncOf(call)
		switch {
		case fn == nil:
			// A function-value call (e.g. the critical-section callback
			// cs()): anything could run, including aborting code.
			if !isBuiltinOrConversion(pass, call) {
				info.callsUnknown = true
			}
		case isInterfaceMethod(fn):
			info.callsUnknown = true
		default:
			info.callees = append(info.callees, fn)
		}
		return true
	})
	return info
}

// checkRecoverHandlers finds deferred recover handlers under body and
// verifies the classify-and-rethrow and no-retention rules when the
// enclosing function-like scope may see an abort panic.
func checkRecoverHandlers(pass *Pass, body *ast.BlockStmt, mayAbortCallee func(*types.Func) bool) {
	// Walk function-like scopes: the declared body plus every literal.
	var walkScope func(scope ast.Node, scopeBody *ast.BlockStmt)
	walkScope = func(scope ast.Node, scopeBody *ast.BlockStmt) {
		scopeMayAbort := scopeCallsMayAbort(pass, scopeBody, mayAbortCallee)
		ast.Inspect(scopeBody, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walkScope(n, n.Body)
				return false
			case *ast.DeferStmt:
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					if rec := findRecover(pass, lit.Body); rec != nil {
						if scopeMayAbort {
							checkHandler(pass, lit, rec)
						}
						checkRetention(pass, lit)
						return false // handler internals handled above
					}
					walkScope(lit, lit.Body)
					return false
				}
			}
			return true
		})
	}
	walkScope(nil, body)
}

// scopeCallsMayAbort reports whether the statements of scopeBody (not
// counting nested function literals, which run on their own schedule)
// contain a call that may panic with the abort signal.
func scopeCallsMayAbort(pass *Pass, scopeBody *ast.BlockStmt, mayAbortCallee func(*types.Func) bool) bool {
	found := false
	ast.Inspect(scopeBody, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.FuncOf(call)
		switch {
		case fn == nil:
			if !isBuiltinOrConversion(pass, call) && !isPanicCall(pass, call) {
				found = true
			}
		case isInterfaceMethod(fn) || mayAbortCallee(fn):
			found = true
		}
		return true
	})
	return found
}

// findRecover returns the recover() call statement-level binding inside a
// deferred handler body, or nil if the handler does not recover.
func findRecover(pass *Pass, body *ast.BlockStmt) *ast.CallExpr {
	var rec *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if rec != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
					rec = call
					return false
				}
			}
		}
		return true
	})
	return rec
}

// checkHandler verifies the classify-and-rethrow discipline of one
// recover handler that can observe the abort signal.
func checkHandler(pass *Pass, lit *ast.FuncLit, rec *ast.CallExpr) {
	recVars := recoveredObjects(pass, lit.Body)
	classifies := isClassifyingHandlerLit(pass, lit)
	rethrows := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isPanicCall(pass, call) || len(call.Args) != 1 {
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
	if !classifies && !rethrows {
		pass.Report(rec.Pos(), "recover() on a transaction-reachable path may swallow the HTM abort signal; classify it (htm.IsAbortSignal or a type assertion against the signal) and re-panic what this handler does not own")
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
				if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "recover" {
						bind()
					}
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

// isClassifyingHandlerLit reports whether lit is a recover handler that
// classifies the recovered value against the HTM abort signal: a type
// assertion or type-switch case naming the signal type, or a call to
// htm.IsAbortSignal.
func isClassifyingHandlerLit(pass *Pass, lit *ast.FuncLit) bool {
	if findRecover(pass, lit.Body) == nil {
		return false
	}
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
			if fn := pass.FuncOf(n); IsNamed(fn, htmPath, "IsAbortSignal") {
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

func isPanicCall(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// isBuiltinOrConversion reports whether call is a builtin call or a type
// conversion — neither can run user code that aborts.
func isBuiltinOrConversion(pass *Pass, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch pass.TypesInfo.Uses[fun].(type) {
		case *types.Builtin, *types.TypeName:
			return true
		}
		if _, isType := pass.TypesInfo.Types[fun]; isType && pass.TypesInfo.Types[fun].IsType() {
			return true
		}
	case *ast.SelectorExpr:
		if obj, ok := pass.TypesInfo.Uses[fun.Sel].(*types.TypeName); ok && obj != nil {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
			return true
		}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.InterfaceType, *ast.StructType, *ast.StarExpr:
		return true
	}
	return false
}

// isInterfaceMethod reports whether fn is declared on an interface (its
// dynamic implementation is unknown).
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}
