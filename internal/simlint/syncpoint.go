package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// syncpointScope lists the packages whose host-side shared state is
// governed by the Sync discipline: the open-system service runner and the
// sharded deployment keep queue/gate/counter state in host memory, which
// is only sound because every mutation happens on a simulated CPU that has
// passed CPU.Sync, or inside a Waiter step at that CPU's turn (either way
// it holds the global minimum (time, ID), so host state evolves in
// nondecreasing virtual time at any host worker count).
var syncpointScope = map[string]bool{
	"hrwle/internal/service": true,
	"hrwle/internal/shard":   true,
}

// SyncViol is one shared-state mutation recorded in a function summary.
type SyncViol struct {
	Pos token.Pos
	Msg string
}

// SyncSummaryFact summarizes a function for the syncpoint traversal: the
// shared-state mutations and scope-package callees that appear BEFORE the
// function's first CPU.Sync or CPU.Await call (all of them, if it calls
// neither). Anything positioned after one is covered — the CPU holds the
// floor — and a covered call site certifies the callee's whole
// continuation, so covered regions need no summary. Exported for every
// declared function so the shard runner's use of the service queue is
// checked across packages. WaiterStep marks the Step method of a waiter
// passed to CPU.Await: the engine runs it only at its CPU's turn, so its
// body is covered from entry and only a direct call to it can be bare.
type SyncSummaryFact struct {
	BareMuts    []SyncViol
	BareCallees []*types.Func
	WaiterStep  bool
}

func (*SyncSummaryFact) AFact() {}

// NewSyncpoint returns the syncpoint analyzer. Host-visible shared state
// in the service and shard runners (the dispatch queue, shard gates,
// per-shard counters) must only be mutated under CPU.Sync coverage: on a
// path, starting from the server loop handed to machine.Machine.Run, that
// has passed a c.Sync() call. The analyzer walks the static call graph
// from each Run loop, following only call edges that appear before the
// caller's first Sync, and reports every shared mutation reachable that
// way — state touched before the loop synchronizes is exactly the
// invariant violation that breaks run determinism across host worker
// counts. Coverage is per-path and does not expire: a Sync anywhere
// earlier on the call path certifies the continuation (the
// counter-after-critical-section idiom), so intra-function reorders below
// a first Sync are out of scope here and left to the determinism CI diff.
//
// Engine-stepped waits count too. CPU.Await returns holding the floor, so
// it covers its continuation like a Sync. The Step method of every
// package type passed to Await is a covered root: the engine runs it only
// at its CPU's turn. Calling such a Step directly before any Sync bypasses
// that guarantee and is reported at the call.
func NewSyncpoint() *Analyzer {
	a := &Analyzer{
		Name: "syncpoint",
		Doc:  "host-side shared state in internal/service and internal/shard is mutated only under CPU.Sync or CPU.Await coverage, traced from the machine.Run server loops",
	}
	a.Run = runSyncpoint
	return a
}

func runSyncpoint(pass *Pass) error {
	if !syncpointScope[pass.Pkg.Path()] {
		return nil
	}
	// Phase 1: summarize and export every declared function; waiter steps
	// are covered roots with nothing bare.
	local := make(map[*types.Func]*SyncSummaryFact)
	for fn := range waiterSteps(pass) {
		local[fn] = &SyncSummaryFact{WaiterStep: true}
	}
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
			sum := local[obj]
			if sum == nil {
				sum = summarizeSync(pass, fd.Body, local)
				local[obj] = sum
			}
			pass.ExportObjectFact(obj, sum)
		}
	}
	// Phase 2: traverse from every server loop handed to machine.Run.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !IsNamed(pass.FuncOf(call), machinePkgPath, "Run") || len(call.Args) < 2 {
				return true
			}
			switch loop := ast.Unparen(call.Args[1]).(type) {
			case *ast.FuncLit:
				sum := summarizeSync(pass, loop.Body, local)
				reachSync(pass, sum, local)
			case *ast.Ident:
				if fn, ok := pass.TypesInfo.Uses[loop].(*types.Func); ok {
					reachSync(pass, &SyncSummaryFact{BareCallees: []*types.Func{fn}}, local)
				}
			case *ast.SelectorExpr:
				if fn, ok := pass.TypesInfo.Uses[loop.Sel].(*types.Func); ok {
					reachSync(pass, &SyncSummaryFact{BareCallees: []*types.Func{fn}}, local)
				}
			}
			return true
		})
	}
	return nil
}

// waiterSteps returns the Step methods, declared in this package, of every
// value passed to CPU.Await here.
func waiterSteps(pass *Pass) map[*types.Func]bool {
	steps := make(map[*types.Func]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 || !IsNamed(pass.FuncOf(call), machinePkgPath, "Await") {
				return true
			}
			t := pass.TypesInfo.TypeOf(call.Args[0])
			if t == nil {
				return true
			}
			obj, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, "Step")
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() == pass.Pkg {
				steps[fn] = true
			}
			return true
		})
	}
	return steps
}

// isWaiterStep reports whether fn is a covered-root waiter step, of this
// package (local) or of an already analyzed one (its exported fact).
func isWaiterStep(pass *Pass, fn *types.Func, local map[*types.Func]*SyncSummaryFact) bool {
	if sum, ok := local[fn]; ok {
		return sum.WaiterStep
	}
	var fact SyncSummaryFact
	return pass.ImportObjectFact(fn, &fact) && fact.WaiterStep
}

// summarizeSync records the shared mutations and scope-package callees of
// one body that appear before the body's first CPU.Sync or CPU.Await
// call, and every direct call of a waiter step there. Nested function
// literals run on their own schedule (tracer callbacks, controller hooks)
// and are excluded from the enclosing summary.
func summarizeSync(pass *Pass, body *ast.BlockStmt, local map[*types.Func]*SyncSummaryFact) *SyncSummaryFact {
	firstSync := token.Pos(-1)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fn := pass.FuncOf(call)
			if IsNamed(fn, machinePkgPath, "Sync") || IsNamed(fn, machinePkgPath, "Await") {
				if firstSync < 0 || call.Pos() < firstSync {
					firstSync = call.Pos()
				}
			}
		}
		return true
	})
	bare := func(pos token.Pos) bool { return firstSync < 0 || pos < firstSync }

	sum := &SyncSummaryFact{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			fn := pass.FuncOf(n)
			if fn == nil || !bare(n.Pos()) || fn.Pkg() == nil || !syncpointScope[fn.Pkg().Path()] {
				return true
			}
			if isWaiterStep(pass, fn, local) {
				sum.BareMuts = append(sum.BareMuts, SyncViol{
					Pos: n.Pos(),
					Msg: "calls waiter step " + fn.FullName() + " directly (it holds the floor only when CPU.Await runs it)",
				})
				return true
			}
			sum.BareCallees = append(sum.BareCallees, fn)
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE || !bare(n.Pos()) {
				return true
			}
			for _, lhs := range n.Lhs {
				if name, ok := sharedTarget(pass, lhs); ok {
					sum.BareMuts = append(sum.BareMuts, SyncViol{
						Pos: n.Pos(),
						Msg: "assigns host-side shared state " + name,
					})
				}
			}
		case *ast.IncDecStmt:
			if !bare(n.Pos()) {
				return true
			}
			if name, ok := sharedTarget(pass, n.X); ok {
				sum.BareMuts = append(sum.BareMuts, SyncViol{
					Pos: n.Pos(),
					Msg: "updates host-side shared state " + name,
				})
			}
		}
		return true
	})
	return sum
}

// sharedTarget reports whether an assignment target is host-visible shared
// state: the chain reaches its root through a pointer dereference (field
// of a pointer, explicit *p, slice or map element — all aliasable beyond
// this frame) or roots at a package-level variable. A bare local and a
// field chain inside a local value are frame-private and exempt.
func sharedTarget(pass *Pass, lhs ast.Expr) (string, bool) {
	crossed := false
	e := ast.Unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			crossed = true
			e = ast.Unparen(x.X)
		case *ast.SelectorExpr:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Pointer); ok {
					crossed = true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			if t := pass.TypesInfo.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Pointer:
					crossed = true
				}
			}
			e = ast.Unparen(x.X)
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[x].(*types.Var)
			if !ok {
				if v, ok = pass.TypesInfo.Defs[x].(*types.Var); !ok {
					return "", false
				}
			}
			if v.Parent() == pass.Pkg.Scope() {
				return v.Name(), true
			}
			if crossed {
				return v.Name(), true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// reachSync walks bare (pre-Sync) call edges from a server loop's summary
// and reports every shared mutation reachable without passing a Sync.
func reachSync(pass *Pass, root *SyncSummaryFact, local map[*types.Func]*SyncSummaryFact) {
	for _, v := range root.BareMuts {
		pass.Report(v.Pos, "server loop %s before its first CPU.Sync or CPU.Await: host state must only change while the CPU holds the virtual-time floor", v.Msg)
	}
	visited := make(map[*types.Func]bool)
	work := append([]*types.Func(nil), root.BareCallees...)
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		if visited[fn] {
			continue
		}
		visited[fn] = true
		sum, ok := local[fn]
		if !ok {
			var fact SyncSummaryFact
			if !pass.ImportObjectFact(fn, &fact) {
				continue
			}
			sum = &fact
		}
		for _, v := range sum.BareMuts {
			pass.Report(v.Pos, "%s with no CPU.Sync on the path from the server loop (via %s): host state must only change while the CPU holds the virtual-time floor", v.Msg, fn.Name())
		}
		work = append(work, sum.BareCallees...)
	}
}
