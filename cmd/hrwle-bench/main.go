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
	"runtime"
	"time"

	"hrwle/internal/cli"
	"hrwle/internal/harness"
)

func main() {
	var (
		fig        = flag.String("fig", "", "figure to regenerate (fig3..fig10, retries, split, or 'all')")
		scale      = flag.Float64("scale", 1.0, "work multiplier per measurement point")
		out        = flag.String("o", "", "write results to file (default stdout)")
		list       = flag.Bool("list", false, "list available figures")
		quiet      = flag.Bool("q", false, "suppress per-point progress")
		threads    = flag.String("threads", "", "override thread counts, e.g. 2,8,32")
		metricsDir = flag.String("metrics-dir", "", "collect obs telemetry and write one RunMetrics JSON per (figure, scheme) into this directory (e.g. results/metrics)")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "measurement points to run concurrently")
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

	progress := cli.Progress(*quiet)
	w, closeOut := cli.Output(*out)
	defer closeOut()

	var totalEvents int64
	for _, id := range ids {
		spec := figs[id]
		if threadList != nil {
			spec.Threads = threadList
		}
		start := time.Now()
		var results []harness.Result
		if *metricsDir != "" {
			var err error
			var events int64
			results, events, err = harness.RunWithMetrics(spec, *scale, progress, *metricsDir, *jobs)
			if err != nil {
				cli.Fatal(err)
			}
			totalEvents += events
		} else {
			results = spec.RunParallel(*scale, progress, *jobs)
		}
		harness.Print(w, spec, results)
		fmt.Fprintf(os.Stderr, "%s done in %.1fs wall\n", id, time.Since(start).Seconds())
	}
	if *metricsDir != "" {
		fmt.Fprintf(os.Stderr, "metrics JSON written to %s (%d events traced)\n", *metricsDir, totalEvents)
	}
}
