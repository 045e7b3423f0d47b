package main

import (
	"fmt"
	"sort"
	"strings"

	"hrwle/internal/machine"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units, directions and bounds (bench_test.go checks).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// the tracer and profiler off. Seconds are host-speed-adjusted (see
// refNominalS). Failed points count in the result's "failed" field rather
// than as a metric: their share is 0 on every correct run. The bounds are
// set from the spread of run medians over ten seeds on a shared 2-vCPU
// host (README.md).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.24},
	{"sim_mcycles_per_s", "Mcycles/s", "higher", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer are the metrics of single layers: host time by module from the
// profiled pass, exact work counters from the untraced and traced passes,
// and the layer microbenchmarks.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, m := range hostModules {
		add(hostMetric[m], "s", "lower")
	}
	add("machine.sim_cycles", "cycles", "lower")
	add("machine.sim_accesses", "count", "lower")
	add("machine.events", "count", "lower")
	add("machine.event_cpu_switches", "count", "lower")
	add("machine.host_ns_per_event", "ns", "lower")
	add("machine.idle_events", "count", "lower")
	add("machine.idle_cycles", "cycles", "lower")
	add("machine.lock_wait_events", "count", "lower")
	add("machine.lock_wait_cycles", "cycles", "lower")
	for k := 0; k < machine.NumEventKinds; k++ {
		add("events."+machine.EventKind(k).String(), "count", "lower")
	}
	add("htm.tx_begins", "count", "lower")
	add("htm.commits", "count", "higher")
	for _, a := range abortNames {
		add("htm.aborts."+a, "count", "lower")
	}
	add("htm.commit_ratio", "ratio", "higher")
	add("htm.dooms", "count", "lower")
	add("htm.suspends", "count", "lower")
	add("core.read_cs", "count", "lower")
	add("core.write_cs", "count", "lower")
	for _, c := range commitNames {
		add("core.commits."+c, "count", "higher")
	}
	add("core.fallback_ratio", "ratio", "lower")
	add("core.quiesce_windows", "count", "lower")
	add("core.quiesce_wait_cycles", "cycles", "lower")
	add("core.path_switches", "count", "lower")
	add("runtime.alloc_mb", "MiB", "lower")
	add("runtime.num_gc", "count", "lower")
	add("service.served", "count", "higher")
	add("service.dropped", "count", "lower")
	add("shard.switches", "count", "lower")
	add("shard.cross_tx", "count", "lower")
	add("workload.ops", "count", "higher")
	add("bench.trace_overhead", "ratio", "lower")
	for _, lb := range layerBenches {
		add(lb.name+"_ns", "ns/op", "lower")
		add(lb.name+"_allocs", "allocs/op", "lower")
	}
	return defs
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// spread describes the per-rep sample behind a median.
type spread struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// summary is one workload's result at one seed.
type summary struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	SimCycles int64             `json:"sim_cycles"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// Spreads gives the quartiles of the adjusted and raw per-rep samples
	// behind the host-time end-to-end metrics, and of ref_s.
	Spreads   map[string]spread `json:"spreads,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Digests   map[string]string `json:"digests,omitempty"`
}

// adjusted converts raw host seconds measured after a kernel time of refS
// to seconds on the reference host.
func adjusted(raw, refS float64) float64 { return raw * refNominalS / refS }

// deterministicCounter reports whether a counter must repeat exactly
// between reps of one seed (everything but the Go runtime's own numbers).
func deterministicCounter(name string) bool { return !strings.HasPrefix(name, "runtime.") }

// summarize folds one workload's reps into its metrics and checks the
// outputs: every point succeeded, every rep reproduced the first untraced
// rep's digests, sim_cycles and exact counters, and — when expected holds
// this seed — the recorded digests. layers, when non-nil, is the layer
// microbenchmark rep shared by all workloads.
func summarize(wl string, seed uint64, reps []*rep, layers *rep, exp expectedSeed) *summary {
	s := &summary{Workload: wl, Seed: seed, Spreads: map[string]spread{}}
	fail := func(format string, args ...any) {
		s.Problems = append(s.Problems, fmt.Sprintf(format, args...))
	}
	byMode := map[string][]*rep{}
	var ref *rep // the first rep that ran the points to completion
	for _, r := range reps {
		byMode[r.Mode] = append(byMode[r.Mode], r)
		if ref == nil && r.Mode != modeSetup {
			ref = r
		}
	}
	for _, r := range reps {
		for _, p := range r.Points {
			s.Attempted++
			if p.Error != "" {
				s.Failed++
				fail("%s rep: %s: %s", r.Mode, p.Name, p.Error)
			}
		}
	}
	if layers != nil {
		for _, f := range layers.Failures {
			s.Failed++
			fail("layers: %s", f)
		}
	}
	if ref != nil {
		s.SimCycles = ref.SimCycles
		s.Digests = map[string]string{}
		for _, p := range ref.Points {
			s.Digests[p.Name] = p.Digest
		}
		for _, r := range reps {
			if r.Mode == modeSetup || r == ref {
				continue
			}
			if r.SimCycles != ref.SimCycles {
				fail("%s rep: sim_cycles %d, first rep %d", r.Mode, r.SimCycles, ref.SimCycles)
			}
			for _, p := range r.Points {
				if p.Error == "" && p.Digest != s.Digests[p.Name] {
					s.Failed++
					fail("%s rep: %s: digest %s, first rep %s", r.Mode, p.Name, p.Digest, s.Digests[p.Name])
				}
			}
		}
		if want, ok := exp[wl]; ok {
			if want.SimCycles != s.SimCycles {
				fail("sim_cycles %d, expected %d", s.SimCycles, want.SimCycles)
			}
			for _, p := range ref.Points {
				if w, ok := want.Points[p.Name]; !ok || w != p.Digest {
					s.Failed++
					fail("%s: digest %s, expected %s", p.Name, p.Digest, w)
				}
			}
		}
	}
	for _, mode := range []string{modeTime, modeTrace} {
		rs := byMode[mode]
		for _, r := range rs[min(1, len(rs)):] {
			for k, v := range r.Counters {
				if deterministicCounter(k) && v != rs[0].Counters[k] {
					fail("%s rep: counter %s = %v, first rep %v", mode, k, v, rs[0].Counters[k])
				}
			}
		}
	}

	times := byMode[modeTime]
	var wall float64
	if len(times) > 0 {
		s.EndToEnd = map[string]metric{}
		wall = s.sample("wall_s", times, func(r *rep) float64 { return r.WallS })
		s.EndToEnd["wall_s"] = metric{wall, "s"}
		s.EndToEnd["sim_mcycles_per_s"] = metric{float64(s.SimCycles) / wall / 1e6, "Mcycles/s"}
		s.EndToEnd["peak_rss_mb"] = metric{median(collect(times, func(r *rep) float64 { return r.PeakRSSMB })), "MiB"}
		s.Spreads["ref_s"] = quartiles(collect(times, func(r *rep) float64 { return r.RefS }))
	}
	if setups := byMode[modeSetup]; len(setups) > 0 {
		if s.EndToEnd == nil {
			s.EndToEnd = map[string]metric{}
		}
		s.EndToEnd["setup_s"] = metric{s.sample("setup_s", setups, func(r *rep) float64 { return r.SetupS }), "s"}
	}

	traces, profs := byMode[modeTrace], byMode[modeProfile]
	if len(times) == 0 || len(traces) == 0 || len(profs) == 0 || layers == nil {
		return s
	}
	pl := map[string]metric{}
	for _, d := range perLayer {
		pl[d.Name] = metric{0, d.Unit}
	}
	set := func(name string, v float64) {
		m, ok := pl[name]
		if !ok {
			panic("bench: undeclared per-layer metric " + name)
		}
		pl[name] = metric{v, m.Unit}
	}
	for k, v := range times[0].Counters {
		set(k, v)
	}
	for k, v := range traces[0].Counters {
		set(k, v)
	}
	for k, v := range layers.Counters {
		set(k, v)
	}
	// Host time by module: each module's share of the profiled reps'
	// samples, scaled to the untraced wall time.
	var samples float64
	for _, p := range profs {
		samples += p.Profile["samples"]
	}
	for _, m := range hostModules {
		var share float64
		for _, p := range profs {
			if samples > 0 {
				share += p.Profile[m] * p.Profile["samples"] / samples
			}
		}
		set(hostMetric[m], share*wall)
	}
	if ev := pl["machine.events"].Value; ev > 0 {
		set("machine.host_ns_per_event", wall*1e9/ev)
	}
	tracedWall := median(collect(traces, func(r *rep) float64 { return adjusted(r.WallS, r.RefS) }))
	set("bench.trace_overhead", tracedWall/wall)
	if b := pl["htm.tx_begins"].Value; b > 0 {
		set("htm.commit_ratio", pl["htm.commits"].Value/b)
	}
	var commits float64
	for _, c := range commitNames {
		commits += pl["core.commits."+c].Value
	}
	if commits > 0 {
		set("core.fallback_ratio", pl["core.commits.sgl"].Value/commits)
	}
	s.PerLayer = pl
	return s
}

// sample returns the median of a host-time sample, adjusted per rep, and
// records the quartiles of the adjusted and raw values.
func (s *summary) sample(name string, reps []*rep, raw func(*rep) float64) float64 {
	adj := collect(reps, func(r *rep) float64 { return adjusted(raw(r), r.RefS) })
	s.Spreads[name] = quartiles(adj)
	s.Spreads[name+"_raw"] = quartiles(collect(reps, raw))
	return median(adj)
}

func collect(reps []*rep, f func(*rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 { return quartiles(xs).Median }

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between order statistics.
func quartiles(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return spread{N: len(s), Q1: at(0.25), Median: at(0.5), Q3: at(0.75)}
}
