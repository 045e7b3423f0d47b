// Command hrwle-bench regenerates the evaluation figures of "Hardware
// Read-Write Lock Elision" (EuroSys'16) on the simulated POWER8 machine.
//
// Usage:
//
//	hrwle-bench -list
//	hrwle-bench -fig fig3 [-scale 0.25] [-o fig3.txt]
//	hrwle-bench -fig all  [-scale 1] [-j 8]
//	hrwle-bench -fig fig5 -metrics-dir results/metrics   # + RunMetrics JSON
//	hrwle-bench -fig fig5 -schemes RW-LE_PES -threads 4 -writes 10 \
//	            -events 120 -matrix -hist [-chrome FILE] [-timeline FILE] [-sanitize]
//
// Each figure prints three panels matching the paper: execution time (or
// throughput), the abort-cause breakdown, and the commit-path breakdown.
// -scale multiplies the amount of work per point (1 = the default recorded
// in EXPERIMENTS.md; smaller is faster and noisier). -j runs that many
// measurement points concurrently (each point is an independent simulated
// machine; results are deterministic and ordered regardless of -j).
// -schemes, -threads and -writes narrow or override the sweep's axes.
//
// On one figure point (one -fig, and one -schemes, -threads and -writes
// entry between them and the figure's own axes), the trace flags look
// inside the run: -events N prints the point's last N events and its
// event totals, -matrix the killer→victim abort-attribution matrix and
// the conflict hot spots, -hist the per-critical-section latency and
// quiescence histograms, -timeline the virtual-time profile (windowed at
// -window cycles), -chrome the full event log as a Chrome trace, and
// -sanitize the simsan race report (exit 1 on any race). The point's
// numbers are those of the same point in the full sweep, and
// -metrics-dir writes its RunMetrics as the sweep would; only -sanitize
// adds to what is observed, the per-access events it needs, which then
// show in the event log and its totals.
//
// The wall-clock benchmark of the simulator itself lives in bench/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"hrwle/internal/cli"
	"hrwle/internal/harness"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
)

func main() {
	var (
		threadList, writeList []int
		fig                   = flag.String("fig", "", "figure to regenerate: an ID that -list prints, or 'all'")
		scale                 = flag.Float64("scale", 1.0, "work multiplier per measurement point")
		list                  = flag.Bool("list", false, "list available figures")
		schemes               = flag.String("schemes", "", "comma-separated subset of the figure's schemes, or 'all' (default)")
		metricsDir            = flag.String("metrics-dir", "", "collect obs telemetry and write one RunMetrics JSON per (figure, scheme) into this directory (e.g. results/metrics)")
		events                = flag.Int("events", 0, "one point: print its last N trace events and the event totals (keeps the full event log in memory)")
		matrix                = flag.Bool("matrix", false, "one point: print the killer→victim abort-attribution matrix and the conflict hot spots")
		hist                  = flag.Bool("hist", false, "one point: print per-CS latency and quiescence histograms")
		shared                = cli.Register("j", "q", "o", "chrome", "timeline", "window", "sanitize")
	)
	flag.Func("threads", "override thread counts, e.g. 2,8,32",
		func(s string) (err error) { threadList, err = cli.ParseInts(s); return err })
	flag.Func("writes", "override write percentages, e.g. 10,90",
		func(s string) (err error) { writeList, err = cli.ParsePcts(s); return err })
	flag.Parse()
	if *events < 0 {
		cli.Usage(errors.New("-events takes a count >= 0"))
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		cli.Usage(fmt.Errorf("-scale takes a finite multiplier > 0, got %v", *scale))
	}
	if slices.ContainsFunc(threadList, func(n int) bool { return n > machine.MaxCPUs }) {
		cli.Usage(fmt.Errorf("-threads takes counts up to %d (machine.MaxCPUs)", machine.MaxCPUs))
	}

	figs := harness.Registry()
	if *list || *fig == "" {
		fmt.Println("available figures:")
		for _, id := range harness.SortedIDs(figs) {
			fmt.Printf("  %-8s %s\n", id, figs[id].Title)
		}
		return
	}

	var ids []string
	if *fig == "all" {
		ids = harness.SortedIDs(figs)
	} else {
		if _, ok := figs[*fig]; !ok {
			cli.Usage(fmt.Errorf("unknown figure %q (use -list)", *fig))
		}
		ids = []string{*fig}
	}
	var specs []*harness.FigureSpec
	for _, id := range ids {
		spec := figs[id]
		var err error
		if spec.Schemes, err = cli.ParseSchemesOf(*schemes, spec.Schemes, spec.Schemes); err != nil {
			cli.Usage(fmt.Errorf("%s: %w", id, err))
		}
		if threadList != nil {
			spec.Threads = threadList
		}
		if writeList != nil {
			spec.WritePcts = writeList
		}
		specs = append(specs, spec)
	}
	singlePoint := false
	flag.Visit(func(f *flag.Flag) {
		singlePoint = singlePoint || slices.Contains([]string{"events", "matrix", "hist", "chrome", "timeline", "window", "sanitize"}, f.Name)
	})
	if singlePoint && (len(specs) != 1 || specs[0].NumPoints() != 1) {
		cli.Usage(errors.New("-events, -matrix, -hist, -chrome, -timeline, -window and -sanitize run one point: one -fig and one scheme, thread count and write percentage (-schemes, -threads, -writes)"))
	}

	progress := cli.Progress(shared.Quiet)
	w, closeOut := cli.Output(shared.Out)
	defer closeOut()
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			cli.Fatal(err)
		}
	}

	attach := harness.Attach{
		Metrics:  *metricsDir != "" || singlePoint,
		Prof:     shared.Timeline != "",
		Sanitize: shared.Sanitize,
		Log:      *events > 0 || shared.Chrome != "",
		Window:   shared.Window,
	}
	var totalEvents int64
	var raced error
	for _, spec := range specs {
		start := time.Now()
		results := harness.RunClosed(spec, *scale, attach, shared.Jobs, progress)
		if *metricsDir != "" {
			for _, rm := range spec.RunMetrics(results) {
				if err := cli.WriteJSON(filepath.Join(*metricsDir, harness.MetricsFileName(rm.Figure, rm.Scheme)), rm); err != nil {
					cli.Fatal(err)
				}
			}
			for _, r := range results {
				totalEvents += r.Observed.Collector.Total()
			}
		}
		if singlePoint {
			raced = writePoint(w, spec, &results[0], *events, *matrix, *hist, shared)
		} else {
			harness.Print(w, spec, results)
		}
		fmt.Fprintf(os.Stderr, "%s done in %.1fs wall\n", spec.ID, time.Since(start).Seconds())
	}
	if *metricsDir != "" {
		fmt.Fprintf(os.Stderr, "metrics JSON written to %s (%d events traced)\n", *metricsDir, totalEvents)
	}
	if raced != nil {
		cli.Fatal(raced)
	}
}

// writePoint prints a single-point run: its header, the last events
// events with the event totals, the abort and commit line, and the race
// report, -matrix, -hist and -timeline panels. It writes the -timeline
// and -chrome files, and returns an error if the sanitizer found a race.
func writePoint(w io.Writer, spec *harness.FigureSpec, r *harness.Result, events int, matrix, hist bool, shared *cli.Flags) error {
	fmt.Fprintf(w, "# %s — %s\n%s w=%d%% n=%d: %d virtual cycles, %d ops\n",
		spec.ID, spec.Title, r.Scheme, r.WritePct, r.Threads, r.Cycles, r.B.Ops)
	o, pm := r.Observed, r.PointMetrics()
	if events > 0 {
		fmt.Fprintln(w)
		obs.WriteEvents(w, o.Log.Events[max(len(o.Log.Events)-events, 0):])
		fmt.Fprintln(w)
		pm.WriteEventTotals(w)
	}
	fmt.Fprintf(w, "\naborts: %.1f%% of %d attempts   commits: %s\n",
		r.B.AbortRate(), r.B.TxStarts, r.B.FormatCommits())
	if o.Races != nil {
		fmt.Fprintln(w)
		o.Races.WriteText(w)
	}
	if matrix {
		fmt.Fprintln(w)
		pm.WriteMatrix(w)
	}
	if hist {
		fmt.Fprintln(w)
		pm.WriteHists(w)
	}
	if o.Profile != nil {
		rep := o.Profile.Report(r.Scheme, spec.ID)
		rep.WriteText(w)
		if err := cli.WriteJSON(shared.Timeline, rep); err != nil {
			cli.Fatal(err)
		}
	}
	if shared.Chrome != "" {
		if err := cli.WriteFile(shared.Chrome, func(f io.Writer) error {
			return obs.WriteChromeTrace(f, o.Log.Events)
		}); err != nil {
			cli.Fatal(err)
		}
	}
	if o.Races != nil && o.Races.Racy() {
		return fmt.Errorf("simsan: %d race(s) under %s on %s w=%d%% n=%d", o.Races.Total, r.Scheme, spec.ID, r.WritePct, r.Threads)
	}
	return nil
}
