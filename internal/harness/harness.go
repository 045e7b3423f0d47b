// Package harness defines and drives the paper's experiments: it builds a
// fresh simulated machine per measurement point, instantiates a
// synchronization scheme, runs the workload in virtual time, and collects
// the three panels every figure in the paper reports — execution time (or
// throughput), the abort-cause breakdown, and the commit-path breakdown.
package harness

import (
	"fmt"
	"io"
	"sort"

	"hrwle/internal/core"
	"hrwle/internal/htm"
	"hrwle/internal/locks"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/rwlock"
	"hrwle/internal/stats"
)

// Result is one measurement point.
type Result struct {
	Figure   string
	Scheme   string
	Threads  int
	WritePct int
	Cycles   int64
	B        stats.Breakdown
	// Speedup is set by figures whose first panel is normalized to a
	// baseline (Fig. 10: SGL at one thread).
	Speedup float64
	// Adaptive is the end-of-run state of the scheme's self-tuning budget
	// controller, when it has one (RW-LE_ADAPT); nil otherwise.
	Adaptive *obs.AdaptiveState
}

// Seconds converts the virtual execution time to seconds.
func (r Result) Seconds() float64 { return machine.Seconds(r.Cycles) }

// Throughput returns application operations per virtual second.
func (r Result) Throughput() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.B.Ops) / machine.Seconds(r.Cycles)
}

// AllSchemes lists every name SchemeFactory resolves, in menu order.
func AllSchemes() []string {
	return []string{
		"RW-LE_OPT", "RW-LE_PES", "RW-LE_FAIR", "RW-LE_SPLIT", "RW-LE_basic",
		"HLE", "BRLock", "RWL", "SGL",
	}
}

// SchemeFactory resolves a scheme name to a lock factory. Supported names:
// RW-LE_OPT, RW-LE_PES, RW-LE_FAIR, RW-LE_SPLIT, RW-LE_basic, HLE, BRLock,
// RWL, SGL.
func SchemeFactory(name string) rwlock.Factory {
	switch name {
	case "RW-LE_OPT":
		return func(s *htm.System) rwlock.Lock { return core.New(s, core.Opt()) }
	case "RW-LE_PES":
		return func(s *htm.System) rwlock.Lock { return core.New(s, core.Pes()) }
	case "RW-LE_FAIR":
		return func(s *htm.System) rwlock.Lock {
			o := core.Opt()
			o.Fair = true
			o.Name = "RW-LE_FAIR"
			return core.New(s, o)
		}
	case "RW-LE_SPLIT":
		return func(s *htm.System) rwlock.Lock {
			o := core.Opt()
			o.SplitLocks = true
			o.Name = "RW-LE_SPLIT"
			return core.New(s, o)
		}
	case "RW-LE_basic":
		return func(s *htm.System) rwlock.Lock { return core.NewBasic(s) }
	case "HLE":
		return func(s *htm.System) rwlock.Lock { return locks.NewHLE(s) }
	case "BRLock":
		return func(s *htm.System) rwlock.Lock { return locks.NewBRLock(s) }
	case "RWL":
		return func(s *htm.System) rwlock.Lock { return locks.NewRWL(s) }
	case "SGL":
		return func(s *htm.System) rwlock.Lock { return locks.NewSGL(s) }
	}
	panic("harness: unknown scheme " + name)
}

// PointCtx carries per-point harness context into a measurement point.
// Each point builds its own machine, so points are independent and a sweep
// may run many of them concurrently; anything a point needs from the
// harness must travel through its ctx rather than package-level state.
type PointCtx struct {
	// Observe, if non-nil, receives every machine the point constructs,
	// right after machine.New and before the run starts. The metrics
	// exporter uses it to install one obs.Collector per point.
	Observe func(*machine.Machine)
}

// observe notifies the per-point observer, falling back to the package
// global installed with SetMachineObserver (used by tests and ad-hoc
// tracing, which run sweeps serially).
func (ctx PointCtx) observe(m *machine.Machine) {
	if ctx.Observe != nil {
		ctx.Observe(m)
		return
	}
	if machineObserver != nil {
		machineObserver(m)
	}
}

// PointFunc produces one measurement point for a figure.
type PointFunc func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result

// FigureSpec describes one paper figure (or ablation) to regenerate.
type FigureSpec struct {
	ID        string
	Title     string
	Schemes   []string
	Threads   []int
	WritePcts []int
	// TimeLabel names the first panel ("time (s)", "throughput (tx/s)",
	// "speedup vs SGL@1").
	TimeLabel string
	Point     PointFunc
}

// Run sweeps the whole figure serially and returns all points in a
// deterministic order. progress, if non-nil, receives one line per
// completed point.
func (f *FigureSpec) Run(scale float64, progress io.Writer) []Result {
	return f.runPoints(scale, progress, 1, nil)
}

// RunParallel sweeps the figure on a bounded pool of workers goroutines
// (workers <= 1 means serial). Every point builds its own machine, so
// points are independent; the returned slice is in the same deterministic
// order as Run and contains bit-identical Results — only wall-clock time
// changes. Progress lines are emitted as points complete, so their order
// varies under parallelism.
func (f *FigureSpec) RunParallel(scale float64, progress io.Writer, workers int) []Result {
	return f.runPoints(scale, progress, workers, nil)
}

// NumPoints returns the number of measurement points in the sweep.
func (f *FigureSpec) NumPoints() int {
	return len(f.Schemes) * len(f.Threads) * len(f.WritePcts)
}

// runPoints is the shared sweep loop behind Run, RunParallel and
// RunWithMetrics. Results are in write-ratio-major, then thread-count,
// then scheme order. mkCtx, if non-nil, supplies the PointCtx for each
// point index (RunWithMetrics uses it to give every point its own
// collector slot, keeping the sweep race-free under parallelism). Points
// report failure by panicking, which ForEach re-raises here.
func (f *FigureSpec) runPoints(scale float64, progress io.Writer, workers int, mkCtx func(int) PointCtx) []Result {
	out := make([]Result, f.NumPoints())
	progress = syncWriter(progress)
	ns, nt := len(f.Schemes), len(f.Threads)
	ForEach(len(out), workers, func(i int) error {
		writePct, threads, scheme := f.WritePcts[i/(nt*ns)], f.Threads[i/ns%nt], f.Schemes[i%ns]
		var ctx PointCtx
		if mkCtx != nil {
			ctx = mkCtx(i)
		}
		r := f.Point(ctx, scheme, threads, writePct, scale)
		r.Figure = f.ID
		r.Scheme = scheme
		r.Threads = threads
		r.WritePct = writePct
		out[i] = r
		if progress != nil {
			fmt.Fprintf(progress, "  %s w=%d%% n=%d %-12s %.4fs aborts=%4.1f%% ops=%d\n",
				f.ID, writePct, threads, scheme, r.Seconds(), r.B.AbortRate(), r.B.Ops)
		}
		return nil
	})
	return out
}

// pointKey indexes a figure's results by sweep coordinates.
type pointKey struct {
	writePct int
	threads  int
	scheme   string
}

// Print renders the figure's three panels as text tables.
func Print(w io.Writer, f *FigureSpec, results []Result) {
	fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title)
	byKey := map[pointKey]Result{}
	for _, r := range results {
		byKey[pointKey{r.WritePct, r.Threads, r.Scheme}] = r
	}

	fmt.Fprintf(w, "\n## %s\n", f.TimeLabel)
	fmt.Fprintf(w, "%4s %7s", "w%", "threads")
	for _, s := range f.Schemes {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for _, wp := range f.WritePcts {
		for _, n := range f.Threads {
			fmt.Fprintf(w, "%4d %7d", wp, n)
			for _, s := range f.Schemes {
				r := byKey[pointKey{wp, n, s}]
				fmt.Fprintf(w, " %12.5f", panelValue(f, r))
			}
			fmt.Fprintln(w)
		}
	}

	fmt.Fprintf(w, "\n## abort breakdown (%% of tx attempts): %s\n", stats.AbortsHeader())
	for _, wp := range f.WritePcts {
		for _, s := range f.Schemes {
			if !speculative(s) {
				continue
			}
			for _, n := range f.Threads {
				r := byKey[pointKey{wp, n, s}]
				fmt.Fprintf(w, "w=%-3d n=%-3d %-12s total=%5.1f%%  %s\n", wp, n, s, r.B.AbortRate(), r.B.FormatAborts())
			}
		}
	}

	fmt.Fprintf(w, "\n## commit breakdown (%%)\n")
	for _, wp := range f.WritePcts {
		for _, s := range f.Schemes {
			for _, n := range f.Threads {
				r := byKey[pointKey{wp, n, s}]
				fmt.Fprintf(w, "w=%-3d n=%-3d %-12s %s\n", wp, n, s, r.B.FormatCommits())
			}
		}
	}
	fmt.Fprintln(w)
}

// panelValue picks what the first panel plots for this figure.
func panelValue(f *FigureSpec, r Result) float64 {
	switch f.TimeLabel {
	case "throughput (ops/s)":
		return r.Throughput()
	case "speedup vs SGL@1 thread":
		return r.Speedup
	default:
		return r.Seconds()
	}
}

// speculative reports whether a scheme ever starts transactions (pure
// lock schemes have no abort panel).
func speculative(scheme string) bool {
	switch scheme {
	case "SGL", "RWL", "BRLock", "Orig":
		return false
	}
	return true
}

// SortedIDs returns the registered figure IDs in order.
func SortedIDs(figs map[string]*FigureSpec) []string {
	ids := make([]string, 0, len(figs))
	for id := range figs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
