package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"hrwle/internal/service"
)

func tinyServeSpec(t *testing.T) ServeSpec {
	t.Helper()
	spec, err := DefaultServeSpec("hashmap")
	if err != nil {
		t.Fatal(err)
	}
	spec.Base.Requests = 400
	spec.Schemes = []string{"RW-LE_OPT", "SGL"}
	spec.Rates = []float64{5e5, 5e6}
	return spec
}

// runReport sweeps spec with the given observers and builds its report
// (the profile report when prof is set).
func runReport(t *testing.T, spec ServeSpec, attach Attach, workers int, prof bool) ([]*OpenPoint, interface{ WriteText(io.Writer) }) {
	t.Helper()
	pts, err := RunOpen(spec, attach, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return pts, spec.Report(pts, prof)
}

// renderReport returns the report's JSON and text renderings.
func renderReport(t *testing.T, rep interface{ WriteText(io.Writer) }) (js, text string) {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	return string(b), buf.String()
}

// TestServeParallelIdentical: the serve sweep report is byte-identical at
// any worker count — point placement is by index, not completion order.
func TestServeParallelIdentical(t *testing.T) {
	_, serial := runReport(t, tinyServeSpec(t), Attach{}, 1, false)
	_, parallel := runReport(t, tinyServeSpec(t), Attach{}, 4, false)
	a, _ := renderReport(t, serial)
	b, _ := renderReport(t, parallel)
	if a != b {
		t.Fatal("worker count changed the serve report")
	}
}

// TestServeReportText: the text report carries the saturation panels and
// per-class rows for every configured scheme.
func TestServeReportText(t *testing.T) {
	_, rep := runReport(t, tinyServeSpec(t), Attach{}, 2, false)
	_, out := renderReport(t, rep)
	for _, want := range []string{
		"achieved throughput", "drop rate",
		"interactive sojourn p99", "standard sojourn p99", "batch sojourn p99",
		"RW-LE_OPT", "SGL", "per-point detail",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("serve text report missing %q", want)
		}
	}
}

// TestDefaultServeSpecs: every advertised workload has a calibrated
// default grid of at least six rates and validates cleanly.
func TestDefaultServeSpecs(t *testing.T) {
	for _, wl := range ServeWorkloads() {
		spec, err := DefaultServeSpec(wl)
		if err != nil {
			t.Fatal(err)
		}
		if len(spec.Rates) < 6 {
			t.Errorf("%s: default grid has %d rates, want >= 6", wl, len(spec.Rates))
		}
		if len(spec.Schemes) < 3 {
			t.Errorf("%s: default scheme set has %d entries, want >= 3", wl, len(spec.Schemes))
		}
		cfg := spec.Base
		cfg.Arrivals.RatePerSec = spec.Rates[0]
		if _, err := service.GenerateSchedule(cfg); err != nil {
			t.Errorf("%s: default config invalid: %v", wl, err)
		}
	}
	if _, err := DefaultServeSpec("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

// TestShardSweepObserversChangeNothing runs a small sharded sweep plain and
// again with the profiler, the sanitizer and the event log on every point:
// the ShardReport JSON must be byte-equal, and each profile must attribute
// exactly servers × sim_cycles.
func TestShardSweepObserversChangeNothing(t *testing.T) {
	spec, err := DefaultServeSpec(ShardWorkload)
	if err != nil {
		t.Fatal(err)
	}
	spec.Base.Servers = 8
	spec.Base.Requests = 400
	spec.Base.Keys.Universe = 1 << 14
	spec.Schemes = []string{ShardAdaptive, "HLE"}
	spec.Rates = []float64{3e6}
	spec.Shards = []int{4}
	spec.Skews = []float64{0, 1.2}
	spec.Window = 20_000

	_, plain := runReport(t, spec, Attach{}, 1, false)
	pts, observed := runReport(t, spec, Attach{Prof: true, Sanitize: true, Log: true}, 2, false)
	want, _ := renderReport(t, plain)
	if got, _ := renderReport(t, observed); got != want {
		t.Errorf("observers changed the shard report:\nplain    %s\nobserved %s", want, got)
	}
	if len(pts[0].Shard.Switches) == 0 {
		t.Fatal("the adaptive point made no switch; the swap path went unobserved")
	}
	for _, p := range pts {
		if o := p.Observed; o.Races == nil || o.Races.Events == 0 || len(o.Log.Events) == 0 || len(p.Requests) == 0 {
			t.Fatalf("%s: an observer recorded nothing", p.label())
		}
		got, want := p.Profile.Cycles.Conservation()
		if exp := int64(spec.Base.Servers) * p.Service.MakespanCycles; got != want || want != exp {
			t.Errorf("%s: attributed %d cycles, want servers×sim_cycles = %d (target %d)", p.label(), got, exp, want)
		}
	}
}
