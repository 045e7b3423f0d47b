// Command hrwle-bench regenerates the evaluation figures of "Hardware
// Read-Write Lock Elision" (EuroSys'16) on the simulated POWER8 machine.
//
// Usage:
//
//	hrwle-bench -list
//	hrwle-bench -fig fig3 [-scale 0.25] [-o fig3.txt]
//	hrwle-bench -fig all  [-scale 1] [-j 8]
//	hrwle-bench -fig fig5 -metrics-dir results/metrics   # + RunMetrics JSON
//
// Each figure prints three panels matching the paper: execution time (or
// throughput), the abort-cause breakdown, and the commit-path breakdown.
// -scale multiplies the amount of work per point (1 = the default recorded
// in EXPERIMENTS.md; smaller is faster and noisier). -j runs that many
// measurement points concurrently (each point is an independent simulated
// machine; results are deterministic and ordered regardless of -j).
//
// The wall-clock benchmark of the simulator itself lives in bench/.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hrwle/internal/cli"
	"hrwle/internal/harness"
	"hrwle/internal/obs"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate: an ID that -list prints, or 'all'")
		scale      = flag.Float64("scale", 1.0, "work multiplier per measurement point")
		list       = flag.Bool("list", false, "list available figures")
		threads    = flag.String("threads", "", "override thread counts, e.g. 2,8,32")
		metricsDir = flag.String("metrics-dir", "", "collect obs telemetry and write one RunMetrics JSON per (figure, scheme) into this directory (e.g. results/metrics)")
		shared     = cli.Register("j", "q", "o")
	)
	flag.Parse()

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
	var threadList []int
	if *threads != "" {
		var err error
		if threadList, err = cli.ParseInts(*threads); err != nil {
			cli.Usage(err)
		}
	}

	progress := cli.Progress(shared.Quiet)
	w, closeOut := cli.Output(shared.Out)
	defer closeOut()
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			cli.Fatal(err)
		}
	}

	var totalEvents int64
	for _, id := range ids {
		spec := figs[id]
		if threadList != nil {
			spec.Threads = threadList
		}
		start := time.Now()
		var results []harness.Result
		if *metricsDir != "" {
			var metrics []*obs.RunMetrics
			var events int64
			results, metrics, events = harness.RunWithMetrics(harness.PointCtx{}, spec, *scale, progress, shared.Jobs)
			for _, rm := range metrics {
				if err := cli.WriteJSON(filepath.Join(*metricsDir, harness.MetricsFileName(rm.Figure, rm.Scheme)), rm); err != nil {
					cli.Fatal(err)
				}
			}
			totalEvents += events
		} else {
			results = spec.RunParallel(*scale, progress, shared.Jobs)
		}
		harness.Print(w, spec, results)
		fmt.Fprintf(os.Stderr, "%s done in %.1fs wall\n", id, time.Since(start).Seconds())
	}
	if *metricsDir != "" {
		fmt.Fprintf(os.Stderr, "metrics JSON written to %s (%d events traced)\n", *metricsDir, totalEvents)
	}
}
