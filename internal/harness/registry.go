package harness

import (
	"hrwle/internal/core"
	"hrwle/internal/htm"
	"hrwle/internal/locks"
	"hrwle/internal/rwlock"
)

// schemeEntry is one row of the scheme table.
type schemeEntry struct {
	name string
	mk   rwlock.Factory
}

// schemeTable is the only place a scheme name becomes a lock. The first
// paperSchemes rows are the paper's menu, in AllSchemes order; the rest
// are the extension schemes.
var schemeTable = []schemeEntry{
	rwle("RW-LE_OPT", core.Opt()),
	rwle("RW-LE_PES", core.Pes()),
	rwle("RW-LE_FAIR", core.Options{MaxHTM: 5, MaxROT: 5, Fair: true}),
	rwle("RW-LE_SPLIT", core.Options{MaxHTM: 5, MaxROT: 5, SplitLocks: true}),
	{"RW-LE_basic", func(s *htm.System) rwlock.Lock { return core.NewBasic(s) }},
	{"HLE", func(s *htm.System) rwlock.Lock { return locks.NewHLE(s) }},
	{"BRLock", func(s *htm.System) rwlock.Lock { return locks.NewBRLock(s) }},
	{"RWL", func(s *htm.System) rwlock.Lock { return locks.NewRWL(s) }},
	{"SGL", func(s *htm.System) rwlock.Lock { return locks.NewSGL(s) }},
	{"PRWL", func(s *htm.System) rwlock.Lock { return locks.NewPRWL(s) }},
	{"HLE-SCM", func(s *htm.System) rwlock.Lock { return locks.NewSCMHLE(s) }},
	rwle("RW-LE_ADAPT", core.Options{MaxHTM: 5, MaxROT: 5, Adaptive: true}),
	rwle("RW-LE_EARLY", core.Options{MaxHTM: 5, MaxROT: 5, EarlyAbort: true}),
}

// paperSchemes is the length of the paper's menu at the head of schemeTable.
const paperSchemes = 9

// rwle is a table row for an RW-LE variant; the lock reports the row's name.
func rwle(name string, o core.Options) schemeEntry {
	o.Name = name
	return schemeEntry{name, func(s *htm.System) rwlock.Lock { return core.New(s, o) }}
}

// AllSchemes lists the paper's scheme menu (`-schemes all`), in menu order.
func AllSchemes() []string { return tableNames(schemeTable[:paperSchemes]) }

// TableSchemes lists every name in the scheme table, extensions included.
func TableSchemes() []string { return tableNames(schemeTable) }

func tableNames(rows []schemeEntry) []string {
	names := make([]string, len(rows))
	for i, e := range rows {
		names[i] = e.name
	}
	return names
}

// SchemeFactory resolves any name in the scheme table to its lock factory.
// It panics on any other name.
func SchemeFactory(name string) rwlock.Factory {
	for _, e := range schemeTable {
		if e.name == name {
			return e.mk
		}
	}
	panic("harness: unknown scheme " + name)
}

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
	for _, f := range []*FigureSpec{FairnessFigure(), RetriesFigure(), SplitFigure(),
		stmbench7Figure(), kyotoFigure(), tpccFigure()} {
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
