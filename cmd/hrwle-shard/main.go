// Command hrwle-shard runs the sharded scale-out deployment: a hash-
// partitioned KV store at 64–256 simulated CPUs under open-system load
// with Zipfian hot-key skew and a small fraction of cross-shard
// transactions, sweeping shard count × skew × lock scheme — including
// the per-shard adaptive controller that moves each shard between RW-LE,
// HLE and SGL online at quiesced boundaries.
//
// Usage:
//
//	hrwle-shard -list
//	hrwle-shard [-o shard.txt] [-json shard.json] [-j 8]
//	hrwle-shard -schemes adaptive,SGL -shards 16,64 -skews 0,1.2
//	hrwle-shard -servers 256 -rate 2e7 -requests 12000
//	hrwle-shard -schemes adaptive -shards 16 -skews 1.2 -seed 7
//
// Output is deterministic: the same flags produce byte-identical text
// and JSON at any -j.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hrwle/internal/cli"
	"hrwle/internal/harness"
)

func main() {
	var (
		list     = flag.Bool("list", false, "print the default sweep and exit")
		shards   = flag.String("shards", "", "comma-separated shard counts (default 4,16,64)")
		skews    = flag.String("skews", "", "comma-separated Zipf exponents (default 0,0.9,1.2)")
		rate     = flag.Float64("rate", 0, "offered load, req/s (default: calibrated)")
		universe = flag.Int("universe", 0, "distinct keys (default 2097152)")
		crossPct = flag.Int("cross", -1, "percent of writes touching a second key (default 4)")
		window   = flag.Int64("window", 0, "controller window width, cycles (default 50000)")
		shared   = cli.Register("j", "q", "o", "json", "schemes", "servers", "requests", "queue-cap", "seed")
	)
	flag.Parse()

	spec := harness.DefaultShardSpec()
	if *list {
		fmt.Printf("default sweep: schemes %s × shards %s × skews %s\n",
			strings.Join(spec.Schemes, ","), cli.FormatInts(spec.Shards), cli.FormatFloats(spec.Skews))
		fmt.Printf("base: %d servers, %d keys, %d requests at %g/s, cross %d%%, queue cap %d\n",
			spec.Base.Servers, spec.Base.Keys.Universe, spec.Base.Requests,
			spec.Base.Arrivals.RatePerSec, spec.Base.Keys.CrossPct, spec.Base.QueueCap)
		return
	}

	var err error
	if spec.Schemes, err = cli.ParseSchemes(shared.Schemes, spec.Schemes, harness.ShardAdaptive); err != nil {
		cli.Usage(err)
	}
	if *shards != "" {
		if spec.Shards, err = cli.ParseInts(*shards); err != nil {
			cli.Usage(err)
		}
	}
	if *skews != "" {
		if spec.Skews, err = cli.ParseSkews(*skews); err != nil {
			cli.Usage(err)
		}
	}
	if *rate > 0 {
		spec.Base.Arrivals.RatePerSec = *rate
	}
	shared.ApplyService(&spec.Base.Config)
	if *universe > 0 {
		spec.Base.Keys.Universe = *universe
	}
	if *crossPct >= 0 {
		spec.Base.Keys.CrossPct = *crossPct
	}
	if *window > 0 {
		spec.Base.Window = *window
	}

	w, closeOut := cli.Output(shared.Out)
	defer closeOut()

	start := time.Now()
	rep, err := harness.RunShard(spec, shared.Jobs, cli.Progress(shared.Quiet))
	if err != nil {
		cli.Fatal(err)
	}
	rep.WriteText(w)
	fmt.Fprintf(os.Stderr, "shard sweep (%d points) done in %.1fs wall\n",
		len(rep.Points), time.Since(start).Seconds())

	if shared.JSON != "" {
		if err := cli.WriteJSON(shared.JSON, rep); err != nil {
			cli.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "JSON written to %s\n", shared.JSON)
	}
}
