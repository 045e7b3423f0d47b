// Command hrwle-trace runs a small lock-elision scenario with the machine's
// event tracer enabled and prints a virtual-time-ordered trace of
// transaction lifecycle events — begins, dooms, aborts (with cause and
// aggressor CPU), suspends, quiescence windows, commits — followed by an
// event summary. It is the debugging lens for understanding *why* a scheme
// behaves the way a figure shows.
//
// Beyond the raw event dump it exposes the structured telemetry of
// internal/obs: -matrix prints the killer→victim abort-attribution matrix
// and the conflict hot addresses, -hist the per-critical-section latency
// and quiescence-window histograms. -json writes the point metrics,
// -chrome the full event trace, and -timeline the virtual-time profile
// (its text panels print with the trace); -sanitize attaches the simsan
// race detector, whose report prints after the stats.
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
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
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

var (
	scheme   = flag.String("scheme", "RW-LE_OPT", "synchronization scheme, a comma-separated list, or 'all'")
	threads  = flag.Int("threads", 4, "simulated hardware threads")
	ops      = flag.Int("ops", 30, "operations per thread")
	writes   = flag.Int("w", 20, "write percentage")
	events   = flag.Int("n", 120, "max events to print")
	seed     = flag.Uint64("seed", 7, "machine seed (identical seeds give identical runs)")
	matrix   = flag.Bool("matrix", false, "print the killer→victim abort-attribution matrix")
	hist     = flag.Bool("hist", false, "print per-CS latency and quiescence histograms")
	noEvents = flag.Bool("q", false, "suppress the raw event dump")
	shared   = cli.Register("j", "json", "chrome", "timeline", "window", "sanitize")
)

func main() {
	flag.Parse()

	schemes, err := cli.ParseSchemes(*scheme, []string{"RW-LE_OPT"})
	if err != nil {
		cli.Usage(err)
	}
	if len(schemes) > 1 && (shared.JSON != "" || shared.Chrome != "" || shared.Timeline != "") {
		cli.Usage(fmt.Errorf("-json, -chrome and -timeline require a single -scheme, got %d", len(schemes)))
	}

	// Each scheme traces an independent machine; buffer the reports and
	// print them in the order the schemes were given, regardless of which
	// finishes first, up to the first scheme that failed.
	bufs := make([]bytes.Buffer, len(schemes))
	errs := make([]error, len(schemes))
	harness.ForEach(len(schemes), shared.Jobs, func(i int) error {
		errs[i] = traceScheme(&bufs[i], schemes[i])
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

// traceScheme runs the scenario under the named scheme, writing the full
// report to w. Side-effecting outputs (-json, -chrome files) only occur in
// single-scheme mode, guarded in main.
func traceScheme(w io.Writer, name string) error {
	m := machine.New(machine.Config{CPUs: *threads, MemWords: 1 << 20, Seed: *seed})
	sys := htm.NewSystem(m, htm.Config{})
	lock := harness.SchemeFactory(name)(sys)
	h := hashmap.New(m, 4)
	h.Populate(50)

	ring := machine.NewRingTracer(*events)
	collector := obs.NewCollector()
	tracers := machine.MultiTracer{ring, collector}
	var log *machine.LogTracer
	if shared.Chrome != "" {
		log = &machine.LogTracer{}
		tracers = append(tracers, log)
	}
	var prof *obs.Profile
	if shared.Timeline != "" {
		prof = obs.NewProfile(cmp.Or(shared.Window, harness.DefaultProfWindow), 0)
		tracers = append(tracers, prof)
	}
	var san *simsan.Sanitizer
	if shared.Sanitize {
		san = simsan.New(simsan.Options{CPUs: *threads})
		tracers = append(tracers, san)
		sys.SetTraceAccesses(true)
	}
	m.SetTracer(tracers)
	if prof != nil {
		prof.Start(m, *threads)
	}

	cycles := m.Run(*threads, func(c *machine.CPU) {
		w := h.NewWorker(lock, sys.Thread(c.ID))
		for i := 0; i < *ops; i++ {
			key := uint64(c.Intn(200))
			if c.Intn(100) < *writes {
				w.Insert(key)
			} else {
				w.Lookup(key)
			}
		}
	})

	fmt.Fprintf(w, "scheme=%s threads=%d ops/thread=%d w=%d%% seed=%d  →  %d virtual cycles\n\n",
		lock.Name(), *threads, *ops, *writes, *seed, cycles)
	if !*noEvents {
		fmt.Fprintf(w, "%12s %4s %-14s %s\n", "CYCLE", "CPU", "EVENT", "DETAIL")
		for _, e := range ring.Events() {
			fmt.Fprintf(w, "%12d %4d %-14s %s\n", e.Time, e.CPU, e.Kind, detail(e))
		}

		fmt.Fprintln(w, "\nevent totals:")
		for k, n := range collector.Counts {
			if n > 0 {
				fmt.Fprintf(w, "  %-14s %8d\n", machine.EventKind(k), n)
			}
		}
	}
	b := stats.Merge(sys.Stats(*threads), cycles)
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

	point := collector.Point(*threads, *writes, cycles, &b)
	if *matrix {
		fmt.Fprintln(w)
		point.WriteMatrix(w)
	}
	if *hist {
		fmt.Fprintln(w)
		point.WriteHists(w)
	}
	if shared.JSON != "" {
		rm := &obs.RunMetrics{Figure: "trace", Scheme: lock.Name(), Points: []*obs.PointMetrics{point}}
		if err := cli.WriteJSON(shared.JSON, rm); err != nil {
			return err
		}
	}
	if shared.Chrome != "" {
		err := cli.WriteFile(shared.Chrome, func(w io.Writer) error { return obs.WriteChromeTrace(w, log.Events) })
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "chrome trace: %d events → %s (open in Perfetto or chrome://tracing)\n",
			len(log.Events), shared.Chrome)
	}
	if prof != nil {
		prof.Finish(m.Now())
		rep := prof.Report(lock.Name(), "hashmap")
		rep.WriteText(w)
		if err := cli.WriteJSON(shared.Timeline, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "timeline profile: %d windows → %s\n",
			len(rep.Timeline.Windows), shared.Timeline)
	}
	return nil
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
