// Package simlint is a static-analysis suite that enforces the simulator's
// core protocol invariants at vet time — before a single schedule runs:
//
//   - determinism: the discrete-event simulator packages must be free of
//     nondeterminism sources (wall clocks, global math/rand, goroutines,
//     sync primitives, unordered map iteration that can reach output); the
//     per-CPU SplitMix64 stream (internal/machine/rng.go) is the sole
//     blessed randomness source.
//   - abortflow: HTM aborts travel as panics (htm.Thread.abort panics with
//     a pooled *abortSignal that htm.Thread.Try recovers). Every other
//     recover() on a path that may see that panic must classify and
//     re-raise it, and must not retain the pooled payload past the handler.
//   - txdiscipline: critical-section bodies execute speculatively and may
//     re-run after an abort, so they must touch simulated memory only
//     through the htm.Thread API — never machine.Peek/Poke or the raw
//     allocator — and must not perform non-restartable mutations of
//     captured host state.
//
// Three contracts have no analyzer because running tests catch their
// violations: the pairing of critical-section and quiescence trace events
// (the engine capture's event fingerprints, TestEngineEquivalence), the
// zero-allocation htm fast paths (the htm alloc tests), and host-side
// state in internal/service and internal/shard changing only while the
// server holds the virtual-time floor (the engine capture, and the
// service and shard tests' deadlines).
//
// The suite is a self-contained reimplementation of the golang.org/x/tools
// go/analysis surface (Analyzer, Pass, object Facts, an analysistest-style
// fixture runner) on top of the standard library's go/ast and go/types,
// because this repository is intentionally dependency-free. Analyzers are
// written against the familiar shape, so swapping in the real framework
// later is mechanical.
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

// Import paths of the simulator packages whose API the analyzers match.
const (
	htmPath        = "hrwle/internal/htm"
	machinePkgPath = "hrwle/internal/machine"
)

// Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run applies the analyzer to one package. Packages are visited in
	// dependency order, so facts exported by an imported package's pass
	// are visible here.
	Run func(*Pass) error
}

// Fact is a datum attached to a types.Object by one package's pass and
// visible to passes over packages that import it. Unlike x/tools facts,
// these live only in memory for the duration of one suite run (the whole
// program is analyzed in a single process), so no serialization is needed.
type Fact interface{ AFact() }

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
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	suite *Suite
	pkg   *Package
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

// ExportObjectFact attaches fact to obj for passes over importing packages.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.suite.exportFact(obj, fact)
}

// ImportObjectFact copies the fact of ptr's concrete type attached to obj
// into ptr and reports whether one was found. ptr must be a non-nil
// pointer to a concrete Fact type.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	return p.suite.importFact(obj, ptr)
}

// Position resolves a token.Pos against the suite's file set.
func (p *Pass) Position(pos token.Pos) token.Position { return p.Fset.Position(pos) }

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

// IsNamed reports whether fn is the function or method name declared in
// the package with import path pkgPath. Methods match on the bare method
// name regardless of receiver.
func IsNamed(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}
