// Command hrwle-serve runs the open-system workloads: seeded stochastic
// arrivals dispatched from a bounded priority queue onto an
// RW-LE-protected structure, sweeping offered load across lock schemes
// and reporting sojourn-time percentiles per priority class.
//
// -workload shard serves the sharded scale-out store: a hash-partitioned
// KV store at 64–256 CPUs under Zipfian key skew, with cross-shard
// transactions, swept over shard count × skew × scheme at one offered
// load. Its "adaptive" scheme is the per-shard controller that moves each
// shard between RW-LE, HLE and SGL at quiesced boundaries.
//
// -prof profiles every scheme at one offered load (default: the knee, see
// EXPERIMENTS.md), attributing every simulated cycle to a category.
// -sanitize, -chrome and -timeline run one point with the simsan race
// detector (exit 1 on any race), a Chrome trace with queue-depth and
// in-flight counter tracks, or the timeline profile. No observer changes
// a result.
//
// Usage:
//
//	hrwle-serve -list
//	hrwle-serve -workload hashmap [-o serve.txt] [-json serve.json] [-j 8]
//	hrwle-serve -workload all -o results/serve.txt
//	hrwle-serve -workload kyoto -arrivals mmpp -rates 2e5,8e5 -seed 7
//	hrwle-serve -workload hashmap -schemes RW-LE_OPT -rates 3e6 -sanitize
//	hrwle-serve -prof -workload tpcc -schemes all -rates 5e5 -window 1e6
//	hrwle-serve -workload shard -o results/shard.txt -json results/shard.json
//	hrwle-serve -workload shard -schemes adaptive -shards 16 -skews 1.2 -prof
//
// Output is deterministic: the same flags produce byte-identical text and
// JSON at any -j. With -workload all (hashmap, kyoto and tpcc), -json
// holds one JSON array of the per-workload reports.
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
	"hrwle/internal/obs"
	"hrwle/internal/service"
)

func main() {
	var (
		rateList, skewList []float64
		shardList          []int
		process            service.Process
		workload           = flag.String("workload", "", "workload to serve (hashmap|kyoto|tpcc|shard|all; all is the first three)")
		list               = flag.Bool("list", false, "list workloads, their default sweeps, -prof knee loads and schemes")
		profile            = flag.Bool("prof", false, "run the virtual-time profiler on every scheme at one offered load")
		schemes            = flag.String("schemes", "", "comma-separated scheme list, or 'all' (default: see -list)")
		servers            = flag.Int("servers", 0, "serving CPUs (0: the workload's default)")
		requests           = flag.Int("requests", 0, "arrivals per point (0: the workload's default)")
		queueCap           = flag.Int("queue-cap", 0, "dispatch queue bound (0: the workload's default)")
		seed               = flag.Uint64("seed", 0, "schedule and machine seed (default 1)")
		universe           = flag.Int("universe", 0, "-workload shard: distinct keys (default 2097152)")
		cross              = flag.Int("cross", 0, "-workload shard: percent of writes touching a second key (default 4)")
		shared             = cli.Register("j", "q", "o", "json", "chrome", "timeline", "window", "sanitize")
	)
	flag.Func("rates", "comma-separated offered loads, req/s (default: calibrated per workload; -prof and -workload shard take one, -prof defaulting to the knee)",
		func(s string) (err error) { rateList, err = cli.ParseRates(s); return err })
	flag.Func("shards", "-workload shard: comma-separated shard counts (default 4,16,64)",
		func(s string) (err error) { shardList, err = cli.ParseInts(s); return err })
	flag.Func("skews", "-workload shard: comma-separated Zipf exponents (default 0,0.9,1.2)",
		func(s string) (err error) { skewList, err = cli.ParseSkews(s); return err })
	flag.Func("arrivals", "arrival process, poisson or mmpp (default poisson)",
		func(s string) (err error) { process, err = service.ParseProcess(s); return err })
	flag.Parse()

	if *list || *workload == "" {
		printList()
		return
	}

	isShard := *workload == harness.ShardWorkload
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if !isShard && (given["shards"] || given["skews"] || given["universe"] || given["cross"]) {
		cli.Usage(errors.New("-shards, -skews, -universe and -cross apply only to -workload shard"))
	}
	var extra []string
	if isShard {
		extra = []string{harness.ShardAdaptive}
	}
	schemeList, err := cli.ParseSchemes(*schemes, nil, extra...)
	if err != nil {
		cli.Usage(err)
	}

	workloads := []string{*workload}
	if *workload == "all" {
		workloads = harness.ServeWorkloads()
	}
	singlePoint := shared.Sanitize || shared.Chrome != "" || shared.Timeline != ""
	var specs []harness.ServeSpec
	for _, wl := range workloads {
		spec, err := harness.DefaultServeSpec(wl)
		if err != nil {
			cli.Usage(err)
		}
		if schemeList != nil {
			spec.Schemes = schemeList
		}
		if rateList != nil {
			spec.Rates = rateList
		} else if *profile {
			knee, _ := harness.DefaultProfSpec(wl)
			spec.Rates = []float64{knee.RatePerSec}
		}
		if *servers > 0 {
			spec.Base.Servers = *servers
		}
		if *requests > 0 {
			spec.Base.Requests = *requests
		}
		if *queueCap > 0 {
			spec.Base.QueueCap = *queueCap
		}
		if *seed != 0 {
			spec.Base.Seed = *seed
		}
		spec.Base.Arrivals.Process = process
		if shardList != nil {
			spec.Shards = shardList
		}
		if skewList != nil {
			spec.Skews = skewList
		}
		if given["universe"] {
			spec.Base.Keys.Universe = *universe
		}
		if given["cross"] {
			spec.Base.Keys.CrossPct = *cross
		}
		if shared.Window > 0 {
			spec.Window = shared.Window
		}
		if err := spec.Check(*profile); err != nil {
			cli.Usage(err)
		}
		specs = append(specs, spec)
	}
	if singlePoint && (*profile || len(specs) != 1 || specs[0].NumPoints() != 1) {
		cli.Usage(errors.New("-sanitize, -chrome and -timeline run one point: one workload, -schemes entry and -rates entry (on -workload shard, one -shards and -skews entry), and no -prof"))
	}

	w, closeOut := cli.Output(shared.Out)
	defer closeOut()
	attach := harness.Attach{Prof: *profile || shared.Timeline != "", Sanitize: shared.Sanitize, Log: shared.Chrome != ""}
	var docs []any
	var raced error
	for _, spec := range specs {
		start := time.Now()
		pts, err := harness.RunOpen(spec, attach, shared.Jobs, cli.Progress(shared.Quiet))
		if err != nil {
			cli.Fatal(err)
		}
		if singlePoint {
			raced = writePoint(w, pts[0], shared)
			if pts[0].Races != nil {
				docs = append(docs, pts[0].Races)
			}
			continue
		}
		rep := spec.Report(pts, *profile)
		rep.WriteText(w)
		if !isShard {
			fmt.Fprintln(w) // the blank line between -workload all's reports
		}
		docs = append(docs, rep)
		fmt.Fprintf(os.Stderr, "%s done in %.1fs wall\n", spec.Base.Workload, time.Since(start).Seconds())
	}

	if shared.JSON != "" && docs != nil {
		if err := cli.WriteJSON(shared.JSON, docs...); err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "JSON written to %s\n", shared.JSON)
	}
	if raced != nil {
		cli.Fatal(raced)
	}
}

// printList prints the workloads with their default sweeps and schemes.
func printList() {
	fmt.Println("available workloads (default offered-load grids and -prof knee loads, req/s):")
	for _, wl := range append(harness.ServeWorkloads(), harness.ShardWorkload) {
		s, _ := harness.DefaultServeSpec(wl)
		prof, _ := harness.DefaultProfSpec(wl)
		fmt.Printf("  %-8s %s  knee %s  schemes %s", wl, cli.FormatFloats(s.Rates),
			cli.FormatFloats([]float64{prof.RatePerSec}), strings.Join(s.Schemes, ","))
		if s.Shards != nil {
			fmt.Printf("  × shards %s × skews %s (%d servers, %d keys, cross %d%%, window %d cycles)",
				cli.FormatInts(s.Shards), cli.FormatFloats(s.Skews), s.Base.Servers, s.Base.Keys.Universe,
				s.Base.Keys.CrossPct, s.Window)
		}
		fmt.Println()
	}
	fmt.Printf("all schemes: %s\n", strings.Join(harness.AllSchemes(), ","))
}

// writePoint prints a single-point run and writes its -timeline and
// -chrome files. It returns an error if the sanitizer found a race.
func writePoint(w io.Writer, p *harness.OpenPoint, shared *cli.Flags) error {
	p.Service.WriteText(w)
	if p.Profile != nil {
		p.Profile.WriteText(w)
		if err := cli.WriteJSON(shared.Timeline, p.Profile); err != nil {
			cli.Fatal(err)
		}
	}
	if p.Events != nil {
		if err := cli.WriteFile(shared.Chrome, func(f io.Writer) error {
			return obs.WriteChromeTraceCounters(f, p.Events, service.CounterTracks(p.Requests))
		}); err != nil {
			cli.Fatal(err)
		}
	}
	if p.Races == nil {
		return nil
	}
	fmt.Fprintln(w)
	p.Races.WriteText(w)
	if p.Races.Racy() {
		return fmt.Errorf("simsan: %d race(s) under %s/%s", p.Races.Total, p.Scheme, p.Service.Workload)
	}
	return nil
}
