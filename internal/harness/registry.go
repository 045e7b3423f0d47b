package harness

import (
	"strconv"
	"strings"
	"sync"

	"hrwle/internal/core"
	"hrwle/internal/htm"
	"hrwle/internal/locks"
	"hrwle/internal/machine"
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

// Registry returns every figure this repository can regenerate, keyed by
// ID: the paper's Figs. 3-10, its ablations and the extensions, one row
// each. Every call builds fresh specs, each fig10 with its own baseline
// cache.
func Registry() map[string]*FigureSpec {
	const execTime = "execution time (s)"
	menu := []string{"RW-LE_OPT", "RW-LE_PES", "HLE", "BRLock", "RWL", "SGL"}
	paperThreads := []int{2, 4, 8, 16, 32, 64, 80}
	extThreads := []int{2, 8, 32, 80}
	vmStress := fig6Paging(lowContentionBuckets, 50)
	figs := map[string]*FigureSpec{}
	for _, f := range []*FigureSpec{
		// §4.1 sensitivity: capacity × contention on the hashmap.
		{ID: "fig3", Title: "Hashmap: high capacity, high contention (1 bucket × 200 items)",
			Schemes: menu, Threads: paperThreads, WritePcts: []int{1, 10, 90}, TimeLabel: execTime,
			Point: point(8000, 1000, hashmapFig{buckets: 1, items: 200}.run)},
		{ID: "fig4", Title: "Hashmap: high capacity, low contention (4096 buckets × 200 items)",
			Schemes: menu, Threads: paperThreads, WritePcts: []int{1, 10, 90}, TimeLabel: execTime,
			Point: point(8000, 1000, hashmapFig{buckets: lowContentionBuckets, items: 200}.run)},
		{ID: "fig5", Title: "Hashmap: low capacity, high contention (1 bucket × 50 items)",
			Schemes: menu, Threads: paperThreads, WritePcts: []int{1, 10, 90}, TimeLabel: execTime,
			Point: point(16000, 1000, hashmapFig{buckets: 1, items: 50}.run)},
		{ID: "fig6", Title: "Hashmap: low capacity, low contention (4096 buckets × 50 items, VM stress)",
			Schemes: menu, Threads: paperThreads, WritePcts: []int{1, 10, 90}, TimeLabel: execTime,
			Point: point(16000, 1000, hashmapFig{buckets: lowContentionBuckets, items: 50, paging: vmStress}.run)},
		// Fairness stress: the fig. 3 scenario with ROTs disabled, which
		// stresses the non-speculative fallback (the main source of reader
		// starvation), base RW-LE against the fair variant of §3.3.
		{ID: "fig7", Title: "Fairness stress: fig. 3 scenario, ROTs disabled (RW-LE vs RW-LE_FAIR)",
			Schemes: []string{"RW-LE", "RW-LE_FAIR"}, Threads: paperThreads, WritePcts: []int{10, 50, 90}, TimeLabel: execTime,
			Point: point(8000, 7000, hashmapFig{buckets: 1, items: 200, lock: func(scheme string) rwlock.Factory {
				return rwle(scheme, core.Options{MaxHTM: 5, Fair: scheme == "RW-LE_FAIR"}).mk
			}}.run)},
		{ID: "fig8", Title: "STMBench7: 24-op default mix, medium DB (throughput)",
			Schemes: menu, Threads: paperThreads, WritePcts: []int{10, 50, 90}, TimeLabel: "throughput (ops/s)",
			Point: point(4000, 8000, runSTMBench7)},
		{ID: "fig9", Title: "Kyoto Cabinet CacheDB, wicked workload (throughput; w% = outer write-lock rate)",
			Schemes: []string{"RW-LE_OPT", "RW-LE_PES", "HLE", "BRLock", "Orig", "SGL"},
			Threads: []int{1, 4, 8, 16, 32, 64}, WritePcts: []int{1, 5, 10}, TimeLabel: "throughput (ops/s)",
			Point: point(6000, 12000, runKyoto)},
		{ID: "fig10", Title: "TPC-C: speedup vs SGL at 1 thread",
			Schemes: menu, Threads: []int{1, 4, 8, 16, 32, 64, 80}, WritePcts: []int{1, 10, 50}, TimeLabel: "speedup vs SGL@1 thread",
			Point: tpccSpeedup(3000, 15000)},
		// §4.1 retry-budget ablation on the fig. 4 workload: the paper
		// reports 5 attempts per speculative path as best on average. The
		// lock takes its budget from the scheme name, and the seed varies
		// with the budget, not the write ratio.
		{ID: "retries", Title: "Ablation: HTM/ROT retry budget (fig. 4 workload)",
			Schemes: []string{"retry=1", "retry=2", "retry=5", "retry=8", "retry=16"},
			Threads: []int{8, 32, 80}, WritePcts: []int{10}, TimeLabel: execTime,
			Point: func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
				budget, _ := strconv.Atoi(strings.TrimPrefix(scheme, "retry=")) // the row's own names parse
				p := HashmapParams{Buckets: lowContentionBuckets, Items: 200, WritePct: writePct, Threads: threads,
					TotalOps: int(8000 * scale), Seed: uint64(9000 + threads*13 + budget)}
				return RunHashmap(ctx, p, rwle(scheme, core.Options{MaxHTM: budget, MaxROT: budget}).mk)
			}},
		// §3.3 split-lock ablation: the pseudo-code's unified wlock (the
		// default) against split NS/ROT locks with lazy ROT subscription,
		// on the fig. 6 workload, whose paging-induced transient aborts
		// stress the HTM/ROT interaction the optimization targets.
		{ID: "split", Title: "Ablation: unified lock word (default) vs split NS/ROT locks + lazy subscription (fig. 6 workload)",
			Schemes: []string{"RW-LE_OPT", "RW-LE_SPLIT"}, Threads: extThreads, WritePcts: []int{10, 90}, TimeLabel: execTime,
			Point: point(16000, 11000, hashmapFig{buckets: lowContentionBuckets, items: 50, paging: vmStress}.run)},
		// Beyond the paper. ext-prwl runs the comparison the paper could
		// not run on POWER8: the TSO-dependent passive reader-writer lock.
		// ext-scm is software-assisted conflict management for HLE
		// (related work [2]). ext-adaptive is the self-tuning HTM-budget
		// controller; ext-early the tcheck-based early abort of doomed
		// quiescence; ext-rcu the tailored-code RCU hashmap.
		{ID: "ext-prwl", Title: "Extension: PRWL vs RW-LE (the TSO-bound comparison the paper skipped)",
			Schemes: []string{"RW-LE_OPT", "PRWL", "RWL", "BRLock"}, Threads: extThreads, WritePcts: []int{1, 10, 50}, TimeLabel: execTime,
			Point: point(16000, 20000, hashmapFig{buckets: lowContentionBuckets, items: 50}.run)},
		{ID: "ext-scm", Title: "Extension: software conflict management for HLE (high contention)",
			Schemes: []string{"RW-LE_OPT", "HLE", "HLE-SCM", "SGL"}, Threads: extThreads, WritePcts: []int{10, 50, 90}, TimeLabel: execTime,
			Point: point(16000, 20000, hashmapFig{buckets: 1, items: 50}.run)},
		{ID: "ext-adaptive", Title: "Extension: self-tuning HTM budget vs fixed OPT/PES (capacity-bound workload)",
			Schemes: []string{"RW-LE_OPT", "RW-LE_PES", "RW-LE_ADAPT"}, Threads: extThreads, WritePcts: []int{10, 50, 90}, TimeLabel: execTime,
			Point: point(8000, 20000, hashmapFig{buckets: 1, items: 200}.run)},
		{ID: "ext-early", Title: "Extension: tcheck early-abort of doomed quiescence (high contention)",
			Schemes: []string{"RW-LE_OPT", "RW-LE_EARLY"}, Threads: extThreads, WritePcts: []int{1, 10, 50}, TimeLabel: execTime,
			Point: point(8000, 20000, hashmapFig{buckets: 1, items: 200}.run)},
		{ID: "ext-rcu", Title: "Extension: tailored-code RCU hashmap vs unmodified hashmap under RW-LE / RWL",
			Schemes: []string{"RCU", "RW-LE_OPT", "RW-LE_PES", "RWL"}, Threads: extThreads, WritePcts: []int{1, 10, 50}, TimeLabel: execTime,
			Point: point(16000, 23000, hashmapFig{buckets: lowContentionBuckets, items: 50}.run)},
	} {
		figs[f.ID] = f
	}
	return figs
}

// runFunc runs one closed-system point of totalOps operations from seed.
type runFunc func(ctx PointCtx, scheme string, threads, writePct, totalOps int, seed uint64) Result

// point is the Point of a figure whose points run ops operations at
// scale 1 through run, each seeded base + threads·13 + w.
func point(ops, base int, run runFunc) PointFunc {
	return func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		return run(ctx, scheme, threads, writePct, int(float64(ops)*scale), uint64(base+threads*13+writePct))
	}
}

// hashmapFig runs the points of a hashmap figure: buckets × items, under
// paging, with the lock that lock(scheme) builds (SchemeFactory when nil).
// The scheme "RCU" runs the RCU map instead.
type hashmapFig struct {
	buckets, items int64
	paging         machine.PagingConfig
	lock           func(scheme string) rwlock.Factory
}

func (h hashmapFig) run(ctx PointCtx, scheme string, threads, writePct, totalOps int, seed uint64) Result {
	p := HashmapParams{Buckets: h.buckets, Items: h.items, WritePct: writePct, Threads: threads,
		TotalOps: totalOps, Seed: seed, Paging: h.paging}
	if scheme == "RCU" {
		return runRCUHashmap(ctx, p)
	}
	lock := SchemeFactory
	if h.lock != nil {
		lock = h.lock
	}
	return RunHashmap(ctx, p, lock(scheme))
}

// tpccSpeedup is the Point of the TPC-C figure (ops operations at scale
// 1, seeded like point): throughput as a speedup over SGL at one thread
// (seeded base + w), the paper's Fig. 10 normalization, since absolute
// throughput differs by over an order of magnitude across the write
// mixes. The baseline is computed lazily once per (write ratio, scaled op
// count), everything it depends on, and shared by every point of the
// figure. Under a parallel sweep several points may ask for it at once, so
// the map is mutex-guarded; the value is deterministic (own machine, fixed
// seed), whichever worker computes it.
//
//simlint:allow determinism baselineMu only guards the lazily computed SGL@1 baseline cache under a parallel sweep; the cached value is deterministic (own machine, fixed seed) regardless of which worker computes it
func tpccSpeedup(ops, base int) PointFunc {
	var baselineMu sync.Mutex
	baseline := map[[2]int]float64{} // (writePct, scaled ops) → SGL@1 ops/s
	measure := point(ops, base, runTPCC)
	return func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		k := [2]int{writePct, int(float64(ops) * scale)}
		baselineMu.Lock()
		b, ok := baseline[k]
		if !ok {
			// The baseline machine reports to this point's observer too;
			// the measured run below replaces it, matching the serial
			// exporter's last-machine-wins behavior.
			b = runTPCC(ctx, "SGL", 1, writePct, k[1], uint64(base+writePct)).Throughput()
			baseline[k] = b
		}
		baselineMu.Unlock()
		r := measure(ctx, scheme, threads, writePct, scale)
		if b > 0 {
			r.Speedup = r.Throughput() / b
		}
		return r
	}
}

// fig6Paging returns the VM-subsystem stress configuration for the
// low-capacity/low-contention scenario: the residency limit is set below
// the hashmap footprint so demand paging stays active throughout the run,
// reproducing the page-fault aborts the paper attributes to the VM
// subsystem in this scenario.
func fig6Paging(buckets, items int64) machine.PagingConfig {
	footprintPages := (buckets*items*16 + buckets) / 512
	return machine.PagingConfig{
		Enabled:       true,
		PageWords:     512,
		ResidentLimit: footprintPages * 3 / 4,
		TLBEntries:    128,
	}
}

// lowContentionBuckets is the bucket count for the low-contention
// scenarios. The paper uses 100,000 on a 512 GB POWER8; this default is
// scaled to container memory while keeping per-op conflict probability
// negligible (see EXPERIMENTS.md).
const lowContentionBuckets = 4096

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
