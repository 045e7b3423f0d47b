package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NewTxDiscipline returns the txdiscipline analyzer. Critical-section
// bodies run speculatively inside hardware transactions and may re-execute
// after an abort, so they must not perform non-restartable mutations of
// captured host state: an increment or compound assignment, or a map store
// or delete, would be applied again by the re-execution (or, for a map,
// left behind by the aborted attempt).
func NewTxDiscipline() *Analyzer {
	a := &Analyzer{
		Name: "txdiscipline",
		Doc:  "critical-section bodies perform no non-restartable mutation of captured state",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					checkCSSites(pass, fd)
				}
			}
		}
		return nil
	}
	return a
}

// checkCSSites finds the critical sections fd enters — calls to Read or
// Write methods of shape func(*htm.Thread, func()) (the rwlock.Lock
// surface, rcu.Domain.Read) — and checks each section body that is a
// function literal, passed directly or bound to a local variable first.
func checkCSSites(pass *Pass, fd *ast.FuncDecl) {
	// Bindings of local variables to function literals, so hoisted bodies
	// (cs := func(){...}; l.Read(t, cs)) resolve.
	bindings := make(map[types.Object]*ast.FuncLit)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok {
			for i, rhs := range as.Rhs {
				if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok && i < len(as.Lhs) {
					if id, ok := as.Lhs[i].(*ast.Ident); ok {
						if o := pass.TypesInfo.Defs[id]; o != nil {
							bindings[o] = lit
						}
					}
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isCSCall(pass, call) {
			return true
		}
		switch a := ast.Unparen(call.Args[1]).(type) {
		case *ast.FuncLit:
			checkCSBody(pass, a)
		case *ast.Ident:
			if lit := bindings[pass.TypesInfo.Uses[a]]; lit != nil {
				checkCSBody(pass, lit)
			}
		}
		return true
	})
}

// isCSCall reports whether call enters a critical section: a method named
// Read or Write with signature (t *htm.Thread, cs func()), concrete or
// via the rwlock.Lock interface.
func isCSCall(pass *Pass, call *ast.CallExpr) bool {
	fn := pass.FuncOf(call)
	if fn == nil || (fn.Name() != "Read" && fn.Name() != "Write") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || sig.Params().Len() != 2 || !isHTMThreadPtr(sig.Params().At(0).Type()) {
		return false
	}
	cs, ok := sig.Params().At(1).Type().Underlying().(*types.Signature)
	return ok && cs.Params().Len() == 0 && cs.Results().Len() == 0
}

func isHTMThreadPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Thread" && obj.Pkg() != nil && obj.Pkg().Path() == htmPath
}

// checkCSBody checks one critical-section literal for non-restartable
// mutations of the variables it captures. A plain `x = expr` reassignment
// is restartable (re-execution recomputes the same value); increments and
// compound assignments accumulate, and map stores and deletes persist
// across the abort.
func checkCSBody(pass *Pass, lit *ast.FuncLit) {
	captured := func(e ast.Expr) (*ast.Ident, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		return id, ok && !obj.IsField() && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End())
	}
	isMap := func(e ast.Expr) bool {
		_, ok := pass.TypesInfo.TypeOf(e).Underlying().(*types.Map)
		return ok
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(pass, n, "delete") && len(n.Args) > 0 {
				if id, ok := captured(n.Args[0]); ok {
					pass.Report(n.Pos(), "critical section deletes from captured map %q: the body may re-execute after an abort and the entry is already gone; stage the deletion outside the section", id.Name)
				}
			}
		case *ast.IncDecStmt:
			if id, ok := captured(n.X); ok {
				pass.Report(n.Pos(), "critical section increments captured %q: an aborted body re-executes and applies the mutation twice; compute into a local and assign once, or move it outside the section", id.Name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					if id, ok := captured(lhs); ok {
						pass.Report(n.Pos(), "critical section compound-assigns captured %q (%s): an aborted body re-executes and applies the mutation twice; compute into a local and assign once", id.Name, n.Tok)
					}
				} else if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMap(ix.X) {
					if id, ok := captured(ix.X); ok {
						pass.Report(n.Pos(), "critical section stores into captured map %q: map writes are not undone by an abort; stage results in a local and publish after the section commits", id.Name)
					}
				}
			}
		}
		return true
	})
}

// isBuiltin reports whether call calls the builtin function name.
func isBuiltin(pass *Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
