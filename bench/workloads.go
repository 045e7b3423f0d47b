package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"hrwle/internal/harness"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/service"
	"hrwle/internal/shard"
	"hrwle/internal/stats"
)

// workload is one set of inputs the benchmark runs: a fixed list of
// simulator points, each built from the workload seed.
type workload struct {
	name   string
	why    string
	points func(seed uint64) []point
}

// point is one measurement point. run builds its own machine (handing it
// to observe before the run starts), runs it, and returns the outcome.
type point struct {
	name string
	run  func(observe func(*machine.Machine)) (outcome, error)
}

// outcome is what a point reports: a digest of its exported result plus
// the exact work counters the result carries.
type outcome struct {
	digest    string
	simCycles int64
	b         stats.Breakdown
	served    int64
	dropped   int64
	switches  int64
	crossTx   int64
}

// workloads lists the benchmark's workloads in report order. The names
// and reasons are mirrored in BENCHMARK.json (bench_test.go checks).
var workloads = []workload{
	{"fig5-hotline", "closed-loop fig5 mini-sweep on one hot line: coroutine parks, conflict aborts, quiescence", fig5Points},
	{"fig4-capacity", "closed-loop fig4 sweep with big read sets and little ping-pong: memory and set-up bound", fig4Points},
	{"serve-knee", "open-loop Poisson serving at each service's knee rate: queue, idle, lock waits, kyoto and tpcc code", servePoints},
	{"shard-256", "256 CPUs over a 2M-key sharded store at Zipf 1.2: scheduler heap, adaptive controller, SGL lock waiters", shardPoints},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Fig sweeps: the 24-point shape of harness.BenchSpec (4 schemes × 2/4/8
// threads × 10/90% writes) at harness.BenchScale. The bucket, item and
// op counts are those of the registry's fig4 and fig5 scenarios; seed 1
// reproduces the registry's per-point seeds (1000 + threads·13 + w), so
// fig5-hotline at seed 1 is exactly the historical hrwle-bench sweep.
func fig5Points(seed uint64) []point { return figPoints("fig5", seed, 1, 50, 16000) }
func fig4Points(seed uint64) []point { return figPoints("fig4", seed, 4096, 200, 8000) }

func figPoints(fig string, seed uint64, buckets, items int64, baseOps int) []point {
	spec := harness.BenchSpec()
	var pts []point
	for _, w := range spec.WritePcts {
		for _, n := range spec.Threads {
			for _, s := range spec.Schemes {
				p := harness.HashmapParams{
					Buckets:  buckets,
					Items:    items,
					WritePct: w,
					Threads:  n,
					TotalOps: int(float64(baseOps) * harness.BenchScale),
					Seed:     seed*1000 + uint64(n*13+w),
				}
				scheme := s
				pts = append(pts, point{
					name: fmt.Sprintf("%s/w%d/n%d/%s", fig, w, n, s),
					run: func(observe func(*machine.Machine)) (outcome, error) {
						r := harness.RunHashmap(harness.PointCtx{Observe: observe}, p, harness.SchemeFactory(scheme))
						r.Figure, r.Scheme, r.Threads, r.WritePct = fig, scheme, p.Threads, p.WritePct
						return outcome{digest: digest(r), simCycles: r.Cycles, b: r.B}, nil
					},
				})
			}
		}
	}
	return pts
}

// serveRequests is the schedule length of each serve-knee point (the
// hrwle-serve default is 4000; longer schedules give a steadier sample).
const serveRequests = 12000

func servePoints(seed uint64) []point {
	var pts []point
	for _, wl := range harness.ServeWorkloads() {
		spec, err := harness.DefaultProfSpec(wl)
		if err != nil {
			panic(err) // ServeWorkloads and DefaultProfSpec share one list
		}
		cfg := spec.Base
		cfg.Arrivals.RatePerSec = spec.RatePerSec
		cfg.Requests = serveRequests
		cfg.Seed = seed
		for _, s := range spec.Schemes {
			pts = append(pts, servePoint(cfg, s))
		}
	}
	return pts
}

func servePoint(cfg service.Config, scheme string) point {
	return point{
		name: fmt.Sprintf("serve/%s/%s", cfg.Workload, scheme),
		run: func(observe func(*machine.Machine)) (outcome, error) {
			m, _, err := service.RunPoint(cfg, scheme, harness.SchemeFactory(scheme), observe)
			if err != nil {
				return outcome{}, err
			}
			return serviceOutcome(m, digest(m)), nil
		},
	}
}

// shard-256 runs the adaptive controller at the sharded sweep's 2e7/s and
// fixed SGL at 1e7/s. At 2e7/s SGL is past its collapse point: it drops up
// to a third of its requests, and its host time varied 2.3× between seeds
// (1.2–2.8 s) while its event count moved by 1%, a spread no bound could
// absorb. Just below its knee it still drives 256 CPUs through
// engine-stepped lock waits, with a host time that varies ±5% by seed.
func shardPoints(seed uint64) []point {
	var pts []point
	for _, run := range []struct {
		scheme string
		rate   float64
	}{{harness.ShardAdaptive, 2e7}, {"SGL", 1e7}} {
		cfg := shard.DefaultConfig()
		cfg.Servers = 256
		cfg.Shards = 16
		cfg.Keys.Skew = 1.2
		cfg.Arrivals.RatePerSec = run.rate
		cfg.Seed = seed
		pal := harness.ShardPalette()
		if run.scheme != harness.ShardAdaptive {
			pal = []shard.Scheme{{Name: run.scheme, Mk: harness.SchemeFactory(run.scheme)}}
		}
		pts = append(pts, point{
			name: "shard256/" + run.scheme,
			run: func(observe func(*machine.Machine)) (outcome, error) {
				r, err := shard.Run(cfg, pal, observe)
				if err != nil {
					return outcome{}, err
				}
				o := serviceOutcome(r.Service, digest(r))
				o.switches = int64(len(r.Switches))
				o.crossTx = r.CrossTx
				return o, nil
			},
		})
	}
	return pts
}

// serviceOutcome extracts the counters of an open-system point.
func serviceOutcome(m *obs.ServiceMetrics, d string) outcome {
	o := outcome{digest: d, simCycles: m.MakespanCycles, served: m.Served, dropped: m.Dropped}
	if e := m.Breakdown; e != nil {
		o.b = stats.Breakdown{
			Threads: e.Threads, Cycles: e.Cycles, TxStarts: e.TxStarts, Ops: e.Ops,
			ReadCS: e.ReadCS, WriteCS: e.WriteCS, QuiesceWait: e.QuiesceWait,
		}
		for i := range o.b.Aborts {
			o.b.Aborts[i] = e.Aborts[stats.AbortCause(i).String()]
		}
		for i := range o.b.Commits {
			o.b.Commits[i] = e.Commits[stats.CommitPath(i).String()]
		}
	}
	return o
}

// digest is the first 16 hex digits of the sha256 of v's JSON encoding:
// enough to catch any change to a point's exported result.
func digest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // results are plain data; encoding cannot fail
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
