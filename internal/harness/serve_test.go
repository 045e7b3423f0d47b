package harness

import (
	"bytes"
	"encoding/json"
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

// TestServeParallelIdentical: the serve sweep report is byte-identical at
// any worker count — point placement is by index, not completion order.
func TestServeParallelIdentical(t *testing.T) {
	serial, err := RunServe(tinyServeSpec(t), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunServe(tinyServeSpec(t), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("worker count changed the serve report")
	}
}

// TestServeReportText: the text report carries the saturation panels and
// per-class rows for every configured scheme.
func TestServeReportText(t *testing.T) {
	rep, err := RunServe(tinyServeSpec(t), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
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
