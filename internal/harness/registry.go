package harness

import (
	"hrwle/internal/core"
	"hrwle/internal/htm"
	"hrwle/internal/rwlock"
)

// newCoreLock builds an RW-LE variant with explicit budgets; used by the
// fairness and ablation figures.
func newCoreLock(s *htm.System, maxHTM, maxROT int, fair bool, name string) rwlock.Lock {
	return core.New(s, core.Options{MaxHTM: maxHTM, MaxROT: maxROT, Fair: fair, Name: name})
}

// Registry returns every figure this repository can regenerate, keyed by ID.
func Registry() map[string]*FigureSpec {
	figs := map[string]*FigureSpec{}
	for _, f := range SensitivityFigures() {
		figs[f.ID] = f
	}
	for _, f := range []*FigureSpec{FairnessFigure(), RetriesFigure(), SplitFigure()} {
		figs[f.ID] = f
	}
	for _, f := range ApplicationFigures() {
		figs[f.ID] = f
	}
	for _, f := range ExtensionFigures() {
		figs[f.ID] = f
	}
	return figs
}

// BenchScale is the work multiplier of the fixed perf mini-sweep.
const BenchScale = 0.25

// BenchSpec returns the fixed mini-sweep the wall-clock benchmark runs: a
// slice of the Figure 5 configuration (low capacity, high contention —
// the simulator's hottest conflict-detection and quiescence paths) small
// enough for CI but large enough to exercise every scheme family. The
// sweep definition must stay fixed so the recorded numbers in
// results/BENCH_*.json and bench/ remain comparable.
func BenchSpec() *FigureSpec {
	spec := *Registry()["fig5"]
	spec.Schemes = []string{"RW-LE_OPT", "RW-LE_PES", "HLE", "SGL"}
	spec.Threads = []int{2, 4, 8}
	spec.WritePcts = []int{10, 90}
	return &spec
}
