package simlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// determinismScope lists the packages whose execution must be bit-for-bit
// reproducible from the machine seed: the simulator core, the layers that
// execute in virtual time on top of it, and the sweep harness whose output
// files are golden-tested. cmd/ and examples/ are presentation-layer and
// exempt.
var determinismScope = map[string]bool{
	"hrwle/internal/machine": true,
	"hrwle/internal/htm":     true,
	"hrwle/internal/core":    true,
	"hrwle/internal/locks":   true,
	"hrwle/internal/rwlock":  true,
	"hrwle/internal/rcu":     true,
	"hrwle/internal/stats":   true,
	"hrwle/internal/obs":     true,
	"hrwle/internal/harness": true,
	"hrwle/internal/service": true,
	"hrwle/internal/shard":   true,
	"hrwle/internal/simsan":  true,
}

// wallClockFuncs are the time-package functions that read the host clock
// or host timers. Pure value manipulation (time.Duration arithmetic) is
// allowed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// hostEnvFuncs are runtime-package functions whose results depend on the
// host machine.
var hostEnvFuncs = map[string]bool{
	"NumCPU": true, "GOMAXPROCS": true, "Gosched": true, "NumGoroutine": true,
}

const rngHint = "use the per-CPU seeded SplitMix64 stream (machine.CPU.Intn/Float64/Rand64; see internal/machine/rng.go, the sole blessed randomness source) instead of math/rand"

// NewDeterminism returns the determinism analyzer: simulator packages must
// contain no nondeterminism sources — wall clocks, global math/rand,
// goroutine spawns, sync primitives, channel operations, or map iteration
// whose order is not washed out by a subsequent sort. Every run must be a
// pure function of the machine seed.
func NewDeterminism() *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "forbid nondeterminism sources (wall clock, math/rand, goroutines, sync, unsorted map iteration) in simulator packages",
	}
	a.Run = func(pass *Pass) error {
		if !determinismScope[pass.Pkg.Path()] {
			return nil
		}
		for _, file := range pass.Files {
			checkDeterminismFile(pass, file)
		}
		return nil
	}
	return a
}

func checkDeterminismFile(pass *Pass, file *ast.File) {
	for _, imp := range file.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		switch path {
		case "math/rand", "math/rand/v2":
			pass.Report(imp.Pos(), "nondeterministic randomness: %s", rngHint)
		}
	}
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			// Package-level declarations: still scan for forbidden uses
			// (e.g. a package-level sync.Mutex or rand source).
			checkDeterminismNode(pass, decl, nil)
			continue
		}
		if fd.Body == nil {
			continue
		}
		// The sort-after-iteration idiom: collect the positions of calls
		// into package sort within this function, then allow a map range
		// whose loop is followed by such a call — collecting into a slice
		// and sorting it washes out the iteration order.
		var sortCalls []token.Pos
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := pass.FuncOf(call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sort" {
					sortCalls = append(sortCalls, call.Pos())
				}
			}
			return true
		})
		checkDeterminismNode(pass, fd, sortCalls)
	}
}

// checkDeterminismNode reports every nondeterminism source under n.
func checkDeterminismNode(pass *Pass, n ast.Node, sortCalls []token.Pos) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Report(n.Pos(), "goroutine spawn in a simulator package: host scheduling is nondeterministic; simulated CPUs are coroutines run by machine.Machine's inline scheduler loop")
		case *ast.SelectStmt:
			pass.Report(n.Pos(), "select in a simulator package: case choice depends on host scheduling")
		case *ast.SendStmt:
			pass.Report(n.Pos(), "channel send in a simulator package: channel synchronization depends on host scheduling")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Report(n.Pos(), "channel receive in a simulator package: channel synchronization depends on host scheduling")
			}
		case *ast.CallExpr:
			checkDeterminismCall(pass, n)
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				break
			}
			switch t.Underlying().(type) {
			case *types.Map:
				if !sortedAfter(n, sortCalls) {
					pass.Report(n.Pos(), "map iteration order is nondeterministic and no sort call follows in this function; iterate a sorted key slice, or sort the collected results before they can reach trace or result output")
				}
			case *types.Chan:
				pass.Report(n.Pos(), "channel range in a simulator package: channel synchronization depends on host scheduling")
			}
		case *ast.Ident:
			checkDeterminismUse(pass, n)
		}
		return true
	})
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && len(call.Args) > 0 {
		if obj, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && obj.Name() == "make" {
			if t := pass.TypesInfo.TypeOf(call.Args[0]); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					pass.Report(call.Pos(), "channel creation in a simulator package: channel synchronization depends on host scheduling")
				}
			}
		}
	}
}

// checkDeterminismUse flags references to objects from nondeterministic
// packages (time's wall clock, math/rand, sync, sync/atomic, runtime host
// queries).
func checkDeterminismUse(pass *Pass, id *ast.Ident) {
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if wallClockFuncs[obj.Name()] {
			pass.Report(id.Pos(), "wall-clock time in a simulator package: time.%s depends on the host; the simulation runs in virtual cycles (machine.CPU.Now)", obj.Name())
		}
	case "math/rand", "math/rand/v2":
		pass.Report(id.Pos(), "nondeterministic randomness: %s", rngHint)
	case "sync", "sync/atomic":
		pass.Report(id.Pos(), "host synchronization primitive %s.%s in a simulator package: simulator state is single-threaded by the virtual-time token; sync primitives hide real races instead of preventing simulated ones", obj.Pkg().Name(), obj.Name())
	case "runtime":
		if hostEnvFuncs[obj.Name()] {
			pass.Report(id.Pos(), "host-environment query runtime.%s in a simulator package: results vary across machines", obj.Name())
		}
	}
}

// sortedAfter reports whether any recorded sort call appears after the
// range statement ends.
func sortedAfter(rs *ast.RangeStmt, sortCalls []token.Pos) bool {
	for _, p := range sortCalls {
		if p > rs.End() {
			return true
		}
	}
	return false
}
