// Package harness defines and drives the paper's experiments: it builds a
// fresh simulated machine per measurement point, instantiates a
// synchronization scheme, runs the workload in virtual time, and collects
// the three panels every figure in the paper reports — execution time (or
// throughput), the abort-cause breakdown, and the commit-path breakdown.
package harness

import (
	"cmp"
	"fmt"
	"io"
	"sort"

	"hrwle/internal/htm"
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
	// Observed holds the point's finished observers, as the sweep's
	// Attach selected them. A point that builds two machines (fig10's
	// baseline) reports the measured run's, the last one built. It is
	// not part of the result: a Result's JSON leaves it out.
	Observed *obs.Observers `json:"-"`
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

// PointCtx carries per-point harness context into a measurement point.
// Each point builds its own machine, so points are independent and a sweep
// may run many of them concurrently; anything a point needs from the
// harness must travel through its ctx rather than package-level state.
type PointCtx struct {
	// Observe, if non-nil, receives every machine the point constructs,
	// right after machine.New and before the run starts.
	Observe func(*machine.Machine)

	// attach selects the observers runClosed installs on every machine
	// the point builds, after Observe's tracer.
	attach Attach
}

// opFunc runs one operation of a closed-system point on CPU c.
type opFunc func(c *machine.CPU, th *htm.Thread)

// runClosed runs one machine of a closed-system point, the mirror of
// service.RunHost: it builds the machine from mc (released when the point
// returns or panics, so its memory goes to the next point), shows it to
// ctx.Observe, builds the HTM system and the lock from mk (no lock when
// mk is nil), lets build populate the structure and return the per-op
// body, installs ctx's observers, runs totalOps operations split evenly
// across mc.CPUs threads (at least one each), and merges the statistics.
// A lock with a self-tuning controller reports its end-of-run state in
// Result.Adaptive.
func runClosed(ctx PointCtx, mc machine.Config, totalOps int, mk rwlock.Factory,
	build func(m *machine.Machine, sys *htm.System, lock rwlock.Lock) opFunc) Result {
	m := machine.New(mc)
	defer m.Release()
	if ctx.Observe != nil {
		ctx.Observe(m)
	}
	sys := htm.NewSystem(m, htm.Config{})
	var lock rwlock.Lock
	if mk != nil {
		lock = mk(sys)
	}
	op := build(m, sys, lock)
	threads := mc.CPUs
	opsPerThread := max(totalOps/threads, 1)
	o := ctx.attach.Install(m, sys, threads, 0, nil)
	cycles := m.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < opsPerThread; i++ {
			op(c, th)
		}
	})
	o.Finish(m.Now())
	r := Result{Cycles: cycles, B: stats.Merge(sys.Stats(threads), cycles), Observed: o}
	if al, ok := lock.(interface {
		AdaptiveState() (budget, winRate10 int, ok bool)
	}); ok {
		if budget, rate, on := al.AdaptiveState(); on {
			r.Adaptive = &obs.AdaptiveState{Budget: budget, WinRate10: rate}
		}
	}
	return r
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

// NumPoints returns the number of measurement points in the sweep.
func (f *FigureSpec) NumPoints() int {
	return len(f.Schemes) * len(f.Threads) * len(f.WritePcts)
}

// RunClosed is the one closed-system runner. It sweeps every point of
// figure f at work multiplier scale (write-ratio-major, then thread count,
// then scheme) with attach's observers on each, on a bounded worker pool
// (workers <= 1 means serial). Every point builds its own machines, so the
// Results are bit-identical at any worker count; only the order of the
// progress lines varies. Points report failure by panicking, which
// ForEach re-raises here.
func RunClosed(f *FigureSpec, scale float64, attach Attach, workers int, progress io.Writer) []Result {
	attach.Window = cmp.Or(attach.Window, DefaultProfWindow)
	out := make([]Result, f.NumPoints())
	progress = syncWriter(progress)
	ns, nt := len(f.Schemes), len(f.Threads)
	ForEach(len(out), workers, func(i int) error {
		writePct, threads, scheme := f.WritePcts[i/(nt*ns)], f.Threads[i/ns%nt], f.Schemes[i%ns]
		r := f.Point(PointCtx{attach: attach}, scheme, threads, writePct, scale)
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
	txStarts := map[string]int64{}
	for _, r := range results {
		byKey[pointKey{r.WritePct, r.Threads, r.Scheme}] = r
		txStarts[r.Scheme] += r.B.TxStarts
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
			if txStarts[s] == 0 {
				continue // no transaction on any point: nothing to break down
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

// SortedIDs returns the registered figure IDs in order.
func SortedIDs(figs map[string]*FigureSpec) []string {
	ids := make([]string, 0, len(figs))
	for id := range figs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
