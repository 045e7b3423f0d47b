package simlint

import "go/ast"

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

// NewDeterminism returns the determinism analyzer: simulator packages must
// not read the host's wall clock or timers. Every run must be a pure
// function of the machine seed, in virtual cycles.
func NewDeterminism() *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads and host timers in simulator packages",
	}
	a.Run = func(pass *Pass) error {
		if !determinismScope[pass.Pkg.Path()] {
			return nil
		}
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" && wallClockFuncs[obj.Name()] {
						pass.Report(id.Pos(), "wall-clock time in a simulator package: time.%s depends on the host; the simulation runs in virtual cycles (machine.CPU.Now)", obj.Name())
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}
