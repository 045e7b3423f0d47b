package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"

	"hrwle/internal/harness"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON checks BENCHMARK.json against its schema limits and
// against the workloads and metrics this program actually reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", bf.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range bf.Workloads {
		checkName(w.Name)
		if i >= len(workloads) || workloads[i].name != w.Name || workloads[i].why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q); the program runs a different list", i, w.Name, w.Why)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	var setupBound, maxOther float64
	for _, m := range bf.EndToEnd {
		checkName(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxOther)
	}
	for _, m := range bf.PerLayer {
		checkName(m.Name)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the program's metrics:\n got %+v\nwant %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		want, _ := json.Marshal(perLayer)
		t.Errorf("per_layer differs from the program's metrics; want:\n%s", want)
	}
}

// TestFig5SimCycles pins fig5-hotline at seed 1 to the historical
// hrwle-bench sweep's sim_cycles.
func TestFig5SimCycles(t *testing.T) {
	var r rep
	runPoints(&r, fig5Points(1), modeTime, nil)
	for _, p := range r.Points {
		if p.Error != "" {
			t.Fatalf("%s: %s", p.Name, p.Error)
		}
	}
	if r.SimCycles != 38_977_216 {
		t.Errorf("fig5-hotline sim_cycles %d, want 38977216", r.SimCycles)
	}
	// The first point must match the registry's fig5 point exactly.
	f := harness.Registry()["fig5"]
	reg := f.Point(harness.PointCtx{}, "RW-LE_OPT", 2, 10, harness.BenchScale)
	reg.Figure, reg.Scheme, reg.Threads, reg.WritePct = "fig5", "RW-LE_OPT", 2, 10
	if got, want := r.Points[0].Digest, digest(reg); got != want {
		t.Errorf("%s digest %s, registry point %s", r.Points[0].Name, got, want)
	}
}

// TestTracedServeMatchesUntraced runs a reduced serve point untraced and
// twice traced: the digests must agree, and the traced counters must
// repeat exactly.
func TestTracedServeMatchesUntraced(t *testing.T) {
	spec, err := harness.DefaultProfSpec("kyoto")
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Base
	cfg.Arrivals.RatePerSec = spec.RatePerSec
	cfg.Requests = 600
	pts := []point{servePoint(cfg, "RW-LE_OPT")}
	var plain, tr1, tr2 rep
	runPoints(&plain, pts, modeTime, nil)
	runPoints(&tr1, pts, modeTrace, nil)
	runPoints(&tr2, pts, modeTrace, nil)
	for _, r := range []rep{plain, tr1, tr2} {
		if r.Points[0].Error != "" {
			t.Fatal(r.Points[0].Error)
		}
	}
	if plain.Points[0].Digest != tr1.Points[0].Digest {
		t.Errorf("traced digest %s, untraced %s", tr1.Points[0].Digest, plain.Points[0].Digest)
	}
	if !reflect.DeepEqual(tr1.Counters, tr2.Counters) {
		t.Errorf("traced counters differ between runs:\n%v\n%v", tr1.Counters, tr2.Counters)
	}
	if tr1.Counters["machine.events"] == 0 || tr1.Counters["machine.event_cpu_switches"] == 0 {
		t.Errorf("tracer saw no events: %v", tr1.Counters)
	}
}

// TestSetupProbe checks that a set-up probe stops every point at its first
// event and records a positive set-up time.
func TestSetupProbe(t *testing.T) {
	cfg, err := harness.DefaultServeSpec("tpcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Base.Arrivals.RatePerSec = cfg.Rates[0]
	var r rep
	runPoints(&r, append(fig5Points(1)[:2], servePoint(cfg.Base, "HLE")), modeSetup, nil)
	for _, p := range r.Points {
		if p.Error != "" {
			t.Fatalf("%s: %s", p.Name, p.Error)
		}
	}
	if r.SetupS <= 0 {
		t.Fatalf("set-up %v s", r.SetupS)
	}
	if r.SimCycles != 0 {
		t.Errorf("probe ran %d simulated cycles", r.SimCycles)
	}
}

// TestSummarizeReportsEveryMetric folds one rep of each mode and checks
// that exactly the declared metrics come out, with the declared units.
func TestSummarizeReportsEveryMetric(t *testing.T) {
	pts := fig5Points(1)[:2]
	k := newRefKernel()
	defer k.close()
	mk := func(mode string) *rep {
		r := &rep{Mode: mode}
		runPoints(r, pts, mode, k)
		return r
	}
	prof := mk(modeProfile)
	prof.Profile = map[string]float64{modMachine: 0.5, modHTM: 0.5, "samples": 10}
	layers := &rep{Mode: modeLayers, Counters: map[string]float64{}}
	for _, lb := range layerBenches {
		layers.Counters[lb.name+"_ns"] = 1
		layers.Counters[lb.name+"_allocs"] = 0
	}
	s := summarize("fig5-hotline", 1, []*rep{mk(modeTime), mk(modeSetup), mk(modeTrace), prof}, layers, nil)
	if len(s.Problems) > 0 {
		t.Fatalf("problems: %v", s.Problems)
	}
	for _, set := range []struct {
		defs []metricDef
		got  map[string]metric
	}{{endToEnd, s.EndToEnd}, {perLayer, s.PerLayer}} {
		if len(set.got) != len(set.defs) {
			t.Errorf("%d metrics reported, %d declared", len(set.got), len(set.defs))
		}
		for _, d := range set.defs {
			if m, ok := set.got[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
			}
		}
	}
	if got := s.PerLayer["machine.host_s"].Value; got != s.EndToEnd["wall_s"].Value/2 {
		t.Errorf("machine.host_s %v, want half of wall_s %v", got, s.EndToEnd["wall_s"].Value)
	}
}

// TestProfileAttribution profiles a short run and checks that the
// symbol-to-module map leaves under 5% of the samples unattributed.
func TestProfileAttribution(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, st := range bi.Settings {
			if st.Key == "-race" && st.Value == "true" {
				// Race-detector samples sit in C code the profiler cannot
				// unwind to a Go caller; the benchmark never runs with it.
				t.Skip("profile attribution is meaningless under the race detector")
			}
		}
	}
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	var r rep
	runPoints(&r, fig5Points(1), modeTime, nil)
	pprof.StopCPUProfile()
	shares, err := profileShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["samples"] < 50 {
		t.Skipf("only %v samples", shares["samples"])
	}
	if u := shares[modUnattributed]; u >= 0.05 {
		t.Errorf("unattributed share %.3f, want < 0.05 (shares %v)", u, shares)
	}
	var sum float64
	for _, m := range hostModules {
		sum += shares[m]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("module shares sum to %v", sum)
	}
	for _, m := range []string{modMachine, modCoro, modHTM} {
		if shares[m] == 0 {
			t.Errorf("no samples attributed to %s: %v", m, shares)
		}
	}
}
