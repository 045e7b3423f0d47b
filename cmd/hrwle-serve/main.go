// Command hrwle-serve runs the open-system service workload: seeded
// stochastic arrivals dispatched from a bounded priority queue onto an
// RW-LE-protected structure, sweeping offered load across lock schemes
// and reporting sojourn-time percentiles per priority class.
//
// With -prof it runs the virtual-time profiler instead: one point per
// scheme at a single offered load (default: the workload's saturation
// knee, where the schemes' cycle mixes diverge most — see EXPERIMENTS.md),
// with every simulated cycle attributed to a category (useful committed
// work, wasted speculation, lock waiting, quiescence, fallback
// serialization, application work, idle) and the windowed telemetry series
// rendered as sparklines. Attribution is exact: per point, the categories
// sum to servers × sim_cycles, and profiling never perturbs the simulation.
//
// Usage:
//
//	hrwle-serve -list
//	hrwle-serve -workload hashmap [-o serve.txt] [-json serve.json] [-j 8]
//	hrwle-serve -workload all -o results/serve.txt
//	hrwle-serve -workload tpcc -schemes RW-LE_OPT,SGL -rates 1e5,3e5
//	hrwle-serve -workload kyoto -arrivals mmpp -seed 7
//	hrwle-serve -workload hashmap -schemes RW-LE_OPT -rates 3e6 -chrome t.json
//	hrwle-serve -workload hashmap -schemes RW-LE_OPT -rates 3e6 -sanitize
//	hrwle-serve -prof -workload hashmap
//	hrwle-serve -prof -workload tpcc -schemes all -rates 5e5 -window 1e6
//
// The default rate grids straddle every default scheme's saturation knee
// (see EXPERIMENTS.md). Output is deterministic: the same flags produce
// byte-identical text and JSON at any -j. With -workload all, -json holds
// one JSON array of the per-workload reports.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hrwle/internal/cli"
	"hrwle/internal/harness"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/service"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to serve (hashmap|kyoto|tpcc|all)")
		list     = flag.Bool("list", false, "list workloads, their default sweeps and -prof knee loads")
		rates    = flag.String("rates", "", "comma-separated offered loads, req/s (default: calibrated per workload; one load with -prof, default the knee)")
		arrivals = flag.String("arrivals", "poisson", "arrival process (poisson|mmpp)")
		profile  = flag.Bool("prof", false, "run the virtual-time profiler on every scheme at one offered load")
		shared   = cli.Register("j", "q", "o", "json", "schemes", "servers", "requests", "queue-cap", "seed",
			"chrome", "timeline", "window", "sanitize")
	)
	flag.Parse()

	if *list || *workload == "" {
		fmt.Println("available workloads (default offered-load grids and -prof knee loads, req/s):")
		for _, wl := range harness.ServeWorkloads() {
			serve, _ := harness.DefaultServeSpec(wl)
			prof, _ := harness.DefaultProfSpec(wl)
			fmt.Printf("  %-8s %s  knee %s\n", wl, cli.FormatFloats(serve.Rates), cli.FormatFloats([]float64{prof.RatePerSec}))
		}
		fmt.Printf("default schemes: %s\n", strings.Join(harness.ServeSchemes(), ","))
		fmt.Printf("all schemes:     %s\n", strings.Join(harness.AllSchemes(), ","))
		return
	}

	workloads := []string{*workload}
	if *workload == "all" {
		workloads = harness.ServeWorkloads()
	}
	schemeList, err := cli.ParseSchemes(shared.Schemes, harness.ServeSchemes())
	if err != nil {
		cli.Usage(err)
	}
	var rateList []float64
	if *rates != "" {
		if rateList, err = cli.ParseRates(*rates); err != nil {
			cli.Usage(err)
		}
	}
	process, err := service.ParseProcess(*arrivals)
	if err != nil {
		cli.Usage(err)
	}
	singlePoint := shared.Sanitize || shared.Chrome != "" || shared.Timeline != ""
	switch {
	case singlePoint && (*profile || len(workloads) != 1 || len(schemeList) != 1 || len(rateList) != 1):
		cli.Usage(errors.New("-sanitize, -chrome and -timeline need exactly one workload, one -schemes entry and one -rates entry, and no -prof"))
	case *profile && len(rateList) > 1:
		cli.Usage(errors.New("-prof profiles one offered load; give at most one -rates entry"))
	}

	// spec returns the workload's default sweep with the flag overrides.
	spec := func(wl string) harness.ServeSpec {
		spec, err := harness.DefaultServeSpec(wl)
		if err != nil {
			cli.Fatal(err)
		}
		spec.Schemes = schemeList
		if rateList != nil {
			spec.Rates = rateList
		}
		shared.ApplyService(&spec.Base)
		spec.Base.Arrivals.Process = process
		return spec
	}

	w, closeOut := cli.Output(shared.Out)
	defer closeOut()

	if singlePoint {
		if shared.Sanitize {
			err = sanitizePoint(spec(*workload), shared.JSON, w)
		} else {
			err = tracePoint(spec(*workload), shared.Chrome, shared.Timeline, int64(shared.Window), w)
		}
		if err != nil {
			cli.Fatal(err)
		}
		return
	}

	progress := cli.Progress(shared.Quiet)
	var reports []any
	for _, wl := range workloads {
		start := time.Now()
		var rep interface{ WriteText(io.Writer) }
		if *profile {
			rep, err = harness.RunProf(profSpec(spec(wl), rateList, int64(shared.Window)), shared.Jobs, progress)
		} else {
			rep, err = harness.RunServe(spec(wl), shared.Jobs, progress)
		}
		if err != nil {
			cli.Fatal(err)
		}
		rep.WriteText(w)
		fmt.Fprintln(w)
		reports = append(reports, rep)
		fmt.Fprintf(os.Stderr, "%s done in %.1fs wall\n", wl, time.Since(start).Seconds())
	}

	if shared.JSON != "" {
		if err := cli.WriteJSON(shared.JSON, reports...); err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "JSON written to %s\n", shared.JSON)
	}
}

// profSpec turns a serve sweep into the profile run of its schemes at one
// offered load: the single -rates entry when one was given, else the
// workload's calibrated knee.
func profSpec(serve harness.ServeSpec, rates []float64, window int64) harness.ProfSpec {
	spec, err := harness.DefaultProfSpec(serve.Base.Workload)
	if err != nil {
		cli.Fatal(err)
	}
	spec.Base, spec.Schemes, spec.WindowCycles = serve.Base, serve.Schemes, window
	if len(rates) == 1 {
		spec.RatePerSec = rates[0]
	}
	return spec
}

// sanitizePoint serves the spec's single point with the simsan race
// detector attached, printing the point metrics and the race report (and
// writing the report JSON when -json was given). Any race is an error:
// the serve workloads run production-shaped sections, so a report here is
// either a scheme bug or a sanitizer false positive — both stop the line.
func sanitizePoint(spec harness.ServeSpec, jsonPath string, w io.Writer) error {
	cfg := spec.Base
	cfg.Arrivals.RatePerSec = spec.Rates[0]
	scheme := spec.Schemes[0]
	m, _, rep, err := service.RunPointObserved(cfg, scheme, harness.SchemeFactory(scheme), nil, nil, true)
	if err != nil {
		return err
	}
	m.WriteText(w)
	fmt.Fprintln(w)
	rep.WriteText(w)
	if jsonPath != "" {
		if err := cli.WriteJSON(jsonPath, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "race report JSON written to %s\n", jsonPath)
	}
	if rep.Racy() {
		return fmt.Errorf("simsan: %d race(s) under %s/%s", rep.Total, scheme, cfg.Workload)
	}
	return nil
}

// tracePoint runs the spec's single point with the requested collectors
// attached: a full event log for the Chrome trace (with queue-depth and
// in-flight counter tracks derived from the request log), and/or the
// virtual-time profiler for the timeline JSON and text panels.
func tracePoint(spec harness.ServeSpec, chromePath, timelinePath string, window int64, w io.Writer) error {
	cfg := spec.Base
	cfg.Arrivals.RatePerSec = spec.Rates[0]
	scheme := spec.Schemes[0]
	var observe func(*machine.Machine)
	var log *machine.LogTracer
	if chromePath != "" {
		log = &machine.LogTracer{}
		observe = func(mach *machine.Machine) { mach.SetTracer(log) }
	}
	var prof *obs.Profile
	if timelinePath != "" {
		prof = obs.NewProfile(window, len(cfg.Classes))
	}
	m, reqs, _, err := service.RunPointObserved(cfg, scheme, harness.SchemeFactory(scheme), observe, prof, false)
	if err != nil {
		return err
	}
	m.WriteText(w)
	if prof != nil {
		rep := prof.Report(scheme, cfg.Workload)
		rep.Service = m
		rep.WriteText(w)
		if err := cli.WriteJSON(timelinePath, rep); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "timeline profile (%d windows) written to %s\n",
			len(rep.Timeline.Windows), timelinePath)
	}
	if log != nil {
		err := cli.WriteFile(chromePath, func(f io.Writer) error {
			return obs.WriteChromeTraceCounters(f, log.Events, service.CounterTracks(reqs))
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "Chrome trace (%d events) written to %s\n", len(log.Events), chromePath)
	}
	return nil
}
