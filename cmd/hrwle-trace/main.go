// Command hrwle-trace runs a small lock-elision scenario with the machine's
// event tracer enabled and prints a virtual-time-ordered trace of
// transaction lifecycle events — begins, dooms, aborts (with cause and
// aggressor CPU), suspends, quiescence windows, commits — followed by an
// event summary. It is the debugging lens for understanding *why* a scheme
// behaves the way a figure shows.
//
// Beyond the raw event dump it exposes the structured telemetry of
// internal/obs:
//
//	-matrix        print the killer→victim abort-attribution matrix and
//	               the conflict hot-address ranking
//	-hist          print per-critical-section latency histograms (split by
//	               read/write side and final commit path) and the
//	               quiescence-window histogram
//	-json FILE     write the full point metrics as deterministic JSON
//	               ("-" for stdout)
//	-chrome FILE   write the complete event trace in Chrome trace_event
//	               format (open in Perfetto or chrome://tracing)
//	-timeline FILE attach the virtual-time profiler and write its windowed
//	               cycle-attribution/telemetry report as JSON (text panels
//	               are printed with the trace); -window sets the bucket
//	               width in virtual cycles
//	-sanitize      attach the simsan happens-before race detector; the race
//	               report is printed after the stats and any race fails the
//	               run (exit 1)
//
// -scheme accepts a comma-separated list; each scheme runs on its own
// simulated machine (concurrently, up to -j at a time) and the traces are
// printed in the order given. -json, -chrome and -timeline require a
// single scheme.
//
// Usage:
//
//	hrwle-trace [-scheme RW-LE_OPT,SGL] [-threads 4] [-ops 30] [-w 20]
//	            [-n 120] [-seed 7] [-j 4] [-matrix] [-hist]
//	            [-json FILE] [-chrome FILE] [-timeline FILE]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"hrwle/internal/cli"
	"hrwle/internal/harness"
	"hrwle/internal/hashmap"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/simsan"
	"hrwle/internal/stats"
)

// traceOpts carries the per-run knobs shared by every scheme.
type traceOpts struct {
	threads, ops, writes, events int
	seed                         uint64
	matrix, hist, noEvents       bool
	sanitize                     bool
	jsonOut, chrome, timeline    string
	window                       int64
}

func main() {
	var (
		scheme   = flag.String("scheme", "RW-LE_OPT", "synchronization scheme, a comma-separated list, or 'all'")
		threads  = flag.Int("threads", 4, "simulated hardware threads")
		ops      = flag.Int("ops", 30, "operations per thread")
		writes   = flag.Int("w", 20, "write percentage")
		events   = flag.Int("n", 120, "max events to print")
		seed     = flag.Uint64("seed", 7, "machine seed (identical seeds give identical runs)")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "schemes to trace concurrently")
		matrix   = flag.Bool("matrix", false, "print the killer→victim abort-attribution matrix")
		hist     = flag.Bool("hist", false, "print per-CS latency and quiescence histograms")
		jsonOut  = flag.String("json", "", "write point metrics JSON to this file ('-' for stdout)")
		chrome   = flag.String("chrome", "", "write a Chrome trace_event file (Perfetto / chrome://tracing)")
		timeline = flag.String("timeline", "", "write the virtual-time profile JSON to this file ('-' for stdout)")
		window   = flag.Int64("window", harness.DefaultProfWindow, "profiling window width in virtual cycles (with -timeline)")
		noEvents = flag.Bool("q", false, "suppress the raw event dump")
		sanitize = flag.Bool("sanitize", false, "attach the simsan happens-before race detector (exit 1 on any race)")
	)
	flag.Parse()

	schemes, err := cli.ParseSchemes(*scheme, []string{"RW-LE_OPT"})
	if err != nil {
		cli.Usage(err)
	}
	if len(schemes) > 1 && (*jsonOut != "" || *chrome != "" || *timeline != "") {
		cli.Usage(fmt.Errorf("-json, -chrome and -timeline require a single -scheme, got %d", len(schemes)))
	}

	opts := traceOpts{
		threads: *threads, ops: *ops, writes: *writes, events: *events,
		seed: *seed, matrix: *matrix, hist: *hist, noEvents: *noEvents,
		sanitize: *sanitize,
		jsonOut:  *jsonOut, chrome: *chrome, timeline: *timeline, window: *window,
	}

	// Each scheme traces an independent machine; buffer the reports and
	// print them in the order the schemes were given, regardless of which
	// finishes first, up to the first scheme that failed.
	bufs := make([]bytes.Buffer, len(schemes))
	errs := make([]error, len(schemes))
	harness.ForEach(len(schemes), *jobs, func(i int) error {
		errs[i] = traceScheme(&bufs[i], schemes[i], opts)
		return errs[i]
	})

	for i := range schemes {
		if i > 0 {
			fmt.Println(strings.Repeat("=", 72))
		}
		os.Stdout.Write(bufs[i].Bytes())
		if errs[i] != nil {
			cli.Fatal(errs[i])
		}
	}
}

// traceScheme runs the scenario under one scheme, writing the full report
// to w. Side-effecting outputs (-json, -chrome files) only occur in
// single-scheme mode, guarded in main.
func traceScheme(w io.Writer, scheme string, o traceOpts) error {
	m := machine.New(machine.Config{CPUs: o.threads, MemWords: 1 << 20, Seed: o.seed})
	sys := htm.NewSystem(m, htm.Config{})
	lock := harness.SchemeFactory(scheme)(sys)
	h := hashmap.New(m, 4)
	h.Populate(50)

	ring := machine.NewRingTracer(o.events)
	counts := &machine.CountTracer{}
	collector := obs.NewCollector()
	tracers := machine.MultiTracer{ring, counts, collector}
	var log *machine.LogTracer
	if o.chrome != "" {
		log = &machine.LogTracer{}
		tracers = append(tracers, log)
	}
	var prof *obs.Profile
	if o.timeline != "" {
		prof = obs.NewProfile(o.window, 0)
		tracers = append(tracers, prof)
	}
	var san *simsan.Sanitizer
	if o.sanitize {
		san = simsan.New(simsan.Options{CPUs: o.threads})
		tracers = append(tracers, san)
		sys.SetTraceAccesses(true)
	}
	m.SetTracer(tracers)
	if prof != nil {
		prof.Start(m.Now(), o.threads)
	}

	cycles := m.Run(o.threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		var spare machine.Addr
		for i := 0; i < o.ops; i++ {
			key := uint64(c.Intn(200))
			if c.Intn(100) < o.writes {
				if spare == 0 {
					spare = h.PrepareNode(th)
				}
				used := false
				lock.Write(th, func() { used = h.Insert(th, key, key, spare) })
				if used {
					spare = 0
				}
			} else {
				lock.Read(th, func() { h.Lookup(th, key) })
			}
		}
	})

	fmt.Fprintf(w, "scheme=%s threads=%d ops/thread=%d w=%d%% seed=%d  →  %d virtual cycles\n\n",
		lock.Name(), o.threads, o.ops, o.writes, o.seed, cycles)
	if !o.noEvents {
		fmt.Fprintf(w, "%12s %4s %-14s %s\n", "CYCLE", "CPU", "EVENT", "DETAIL")
		for _, e := range ring.Events() {
			fmt.Fprintf(w, "%12d %4d %-14s %s\n", e.Time, e.CPU, e.Kind, detail(e))
		}

		fmt.Fprintln(w, "\nevent totals:")
		for k, n := range counts.Counts {
			if n > 0 {
				fmt.Fprintf(w, "  %-14s %8d\n", machine.EventKind(k), n)
			}
		}
	}
	b := stats.Merge(sys.Stats(o.threads), cycles)
	fmt.Fprintf(w, "\naborts: %.1f%% of %d attempts   commits: %s\n",
		b.AbortRate(), b.TxStarts, b.FormatCommits())

	if san != nil {
		rep := san.Finish()
		fmt.Fprintln(w)
		rep.WriteText(w)
		if rep.Racy() {
			return fmt.Errorf("simsan: %d race(s) under %s", rep.Total, lock.Name())
		}
	}

	point := collector.Point(o.threads, o.writes, cycles, &b)
	if o.matrix {
		fmt.Fprintln(w)
		point.WriteMatrix(w)
	}
	if o.hist {
		fmt.Fprintln(w)
		point.WriteHists(w)
	}
	if o.jsonOut != "" {
		rm := &obs.RunMetrics{Figure: "trace", Scheme: lock.Name(), Points: []*obs.PointMetrics{point}}
		if err := writeTo(o.jsonOut, rm.WriteJSON); err != nil {
			return err
		}
	}
	if o.chrome != "" {
		err := writeTo(o.chrome, func(w io.Writer) error { return obs.WriteChromeTrace(w, log.Events) })
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "chrome trace: %d events → %s (open in Perfetto or chrome://tracing)\n",
			len(log.Events), o.chrome)
	}
	if prof != nil {
		prof.Finish(m.Now())
		rep := prof.Report(lock.Name(), "hashmap")
		rep.WriteText(w)
		if err := writeTo(o.timeline, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "timeline profile: %d windows → %s\n",
			len(rep.Timeline.Windows), o.timeline)
	}
	return nil
}

// writeTo writes via fn to path, with "-" meaning stdout.
func writeTo(path string, fn func(io.Writer) error) error {
	if path == "-" {
		return fn(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func detail(e machine.Event) string {
	switch e.Kind {
	case machine.EvTxBegin:
		if e.Aux == 1 {
			return "ROT"
		}
		return "HTM"
	case machine.EvTxAbort, machine.EvTxDoom:
		cause, killer := htm.UnpackAbortAux(e.Aux)
		s := "cause=" + cause.String()
		if killer >= 0 {
			s += fmt.Sprintf(" killer=cpu%d addr=%d", killer, e.Addr)
		}
		return s
	case machine.EvTxCommit:
		return fmt.Sprintf("%d dirty words", e.Aux)
	case machine.EvQuiesceEnd:
		return fmt.Sprintf("waited %d cycles", e.Aux)
	case machine.EvCSBegin:
		write, _, _ := machine.UnpackCS(e.Aux)
		return csSide(write)
	case machine.EvCSEnd:
		write, path, retries := machine.UnpackCS(e.Aux)
		return fmt.Sprintf("%s path=%s retries=%d", csSide(write), stats.CommitPath(path), retries)
	case machine.EvPathSwitch:
		return fmt.Sprintf("to=%d", e.Aux)
	case machine.EvRead, machine.EvWrite, machine.EvCAS:
		return fmt.Sprintf("addr=%d val=%d", e.Addr, e.Aux)
	case machine.EvPageFault:
		return fmt.Sprintf("page=%d", e.Aux)
	}
	return ""
}

func csSide(write bool) string {
	if write {
		return "write-side"
	}
	return "read-side"
}
