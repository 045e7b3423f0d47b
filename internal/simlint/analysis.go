// Package simlint is a static-analysis suite for the protocol rules that
// no running test can see break. Each rule below has a row in the
// seeded-mutation catalogue (scripts/mutations.sh) that only it catches:
//
//   - determinism: the simulator packages read no wall clock or host
//     timer; every run is a pure function of the machine seed, in virtual
//     cycles (row wallclock).
//   - abortflow: HTM aborts travel as panics (htm.Thread.abort panics with
//     a pooled *abortSignal that htm.Thread.Try recovers). Every other
//     deferred recover() must classify the value and re-raise what it
//     does not own (row recover), and must not retain the pooled payload
//     past the handler (row recover-retain).
//   - txdiscipline: critical-section bodies may re-run after an abort, so
//     they must not increment or compound-assign a captured variable (row
//     cs-captured-incr) or store into or delete from a captured map (row
//     cs-captured-map).
//
// A rule whose row a test in go test ./... also catches was deleted:
// global math/rand, host concurrency, sync primitives, runtime host
// queries and unsorted map iteration in simulator packages; raw
// machine.Peek/Poke and allocator calls in a critical section or any
// helper it reaches; captured self-appends; and the cross-package
// reachability that decided which recovers abortflow checks. The
// catalogue keeps their rows, each with the test that catches it.
//
// Three more contracts are checked while the code runs: the pairing of
// critical-section and quiescence trace events (the engine capture's
// event fingerprints, TestEngineEquivalence), the zero-allocation htm
// fast paths (the htm alloc tests), and the shard gate's host state
// changing only while its CPU holds the virtual-time floor
// (machine.CPU.MustHoldFloor, which the shard tests trip).
//
// The suite is a self-contained reimplementation of the part of the
// golang.org/x/tools go/analysis surface it needs (Analyzer, Pass, an
// analysistest-style fixture runner) on top of the standard library's
// go/ast and go/types, because this repository is intentionally
// dependency-free. Only the packages matched by the load patterns are
// analyzed; their module-internal dependencies are loaded to type-check
// them.
//
// Legitimate violations are suppressed with an escape hatch that demands a
// reason:
//
//	//simlint:allow <analyzer> <reason>       (this line, the next line,
//	                                           or a whole function when in
//	                                           its doc comment)
//	//simlint:allow-file <analyzer> <reason>  (the whole file)
package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// htmPath is the import path of the simulator's HTM package, whose API
// the analyzers match.
const htmPath = "hrwle/internal/htm"

// Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package matched by the load
	// patterns.
	Run func(*Pass) error
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Pass carries one analyzer's view of one package, mirroring
// golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	suite *Suite
}

// Report records a diagnostic. Diagnostics suppressed by a matching
// //simlint:allow comment are counted but not surfaced.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.suite.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// FuncOf resolves the static callee of a call expression: a *types.Func
// for direct calls and method calls (including interface methods), nil for
// calls of function values and conversions.
func (p *Pass) FuncOf(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
