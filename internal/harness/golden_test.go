package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"hrwle/internal/machine"
	"hrwle/internal/obs"
)

// goldenSpec is a miniature fig5 sweep: small enough to run in CI, rich
// enough to exercise speculation, quiescence and the SGL fallback.
func goldenSpec() *FigureSpec {
	spec := *Registry()["fig5"]
	spec.Threads = []int{2, 4}
	spec.WritePcts = []int{10}
	spec.Schemes = []string{"RW-LE_OPT", "RW-LE_PES", "SGL"}
	return &spec
}

// withObserve returns a copy of spec whose points show every machine
// they build to observe, as PointCtx.Observe.
func withObserve(spec *FigureSpec, observe func(*machine.Machine)) *FigureSpec {
	out := *spec
	out.Point = func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		ctx.Observe = observe
		return spec.Point(ctx, scheme, threads, writePct, scale)
	}
	return &out
}

// renderGolden sweeps goldenSpec serially, showing every machine to
// observe (nil: none), and renders the figure.
func renderGolden(t *testing.T, observe func(*machine.Machine)) ([]byte, []Result) {
	t.Helper()
	spec := goldenSpec()
	results := RunClosed(withObserve(spec, observe), 0.02, Attach{}, 1, nil)
	var buf bytes.Buffer
	Print(&buf, spec, results)
	return buf.Bytes(), results
}

// sameResult reports whether two Results hold the same measurement,
// whatever observed them.
func sameResult(a, b Result) bool {
	a.Observed, b.Observed = nil, nil
	return a == b
}

// TestTracingDoesNotChangeResults is the zero-cost guard: the same sweep
// with a Collector observing every machine must print byte-identical output
// and identical cycle counts.
func TestTracingDoesNotChangeResults(t *testing.T) {
	base, baseResults := renderGolden(t, nil)

	installs := 0
	traced, tracedResults := renderGolden(t, func(m *machine.Machine) {
		installs++
		m.SetTracer(machine.MultiTracer{obs.NewCollector(), &machine.CountTracer{}})
	})

	if installs != len(baseResults) {
		t.Errorf("observer installed for %d machines, want %d", installs, len(baseResults))
	}
	if !bytes.Equal(base, traced) {
		t.Errorf("tracing changed figure output\n--- untraced ---\n%s\n--- traced ---\n%s", base, traced)
	}
	for i := range baseResults {
		if baseResults[i].Cycles != tracedResults[i].Cycles {
			t.Errorf("point %d: tracing changed virtual time: %d vs %d cycles",
				i, baseResults[i].Cycles, tracedResults[i].Cycles)
		}
	}
}

// TestRunWithMetricsMatchesPlainRun checks that a sweep run with
// Attach.Metrics produces the same Results as a plain sweep, one
// RunMetrics per scheme in the figure's scheme order, and that a second
// export is identical (the determinism contract of EXPERIMENTS.md).
func TestRunWithMetricsMatchesPlainRun(t *testing.T) {
	spec := goldenSpec()
	plain := RunClosed(spec, 0.02, Attach{}, 1, nil)

	withMetrics := RunClosed(spec, 0.02, Attach{Metrics: true}, 1, nil)
	metrics1 := spec.RunMetrics(withMetrics)
	metrics2 := spec.RunMetrics(RunClosed(spec, 0.02, Attach{Metrics: true}, 1, nil))

	if len(withMetrics) != len(plain) {
		t.Fatalf("result counts differ: %d vs %d", len(withMetrics), len(plain))
	}
	for i := range plain {
		if !sameResult(plain[i], withMetrics[i]) {
			t.Errorf("point %d differs with metrics enabled: %+v vs %+v", i, plain[i], withMetrics[i])
		}
	}
	if len(metrics1) != len(spec.Schemes) {
		t.Fatalf("got %d RunMetrics, want one per scheme (%d)", len(metrics1), len(spec.Schemes))
	}
	for i, scheme := range spec.Schemes {
		if metrics1[i].Figure != spec.ID || metrics1[i].Scheme != scheme {
			t.Errorf("metrics %d is %s/%s, want %s/%s", i, metrics1[i].Figure, metrics1[i].Scheme, spec.ID, scheme)
		}
	}
	if a, b := metricsJSON(t, metrics1), metricsJSON(t, metrics2); !bytes.Equal(a, b) {
		t.Error("repeated export not identical")
	}
}

// TestRunWithMetricsUnderCallerCtx checks that a sweep run with
// Attach.Metrics shows every machine to the point's PointCtx.Observe
// first: the collectors join the tracer it installs, which sees every
// event they count, and the deadline it sets bounds the run.
func TestRunWithMetricsUnderCallerCtx(t *testing.T) {
	spec := goldenSpec()
	var counted machine.CountTracer
	results := RunClosed(withObserve(spec, func(m *machine.Machine) { m.SetTracer(&counted) }), 0.02, Attach{Metrics: true}, 1, nil)
	var events int64
	for _, r := range results {
		events += r.Observed.Collector.Total()
	}
	if events == 0 || counted.Total() != events {
		t.Errorf("caller's tracer saw %d events, the collectors %d", counted.Total(), events)
	}

	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "deadline") {
			t.Errorf("run past the caller's deadline: got panic %v, want a deadline panic", r)
		}
	}()
	RunClosed(withObserve(spec, func(m *machine.Machine) { m.Cfg.Deadline = 1000 }), 0.02, Attach{Metrics: true}, 1, nil)
}

// metricsJSON encodes metrics for byte comparison.
func metricsJSON(t *testing.T, metrics []*obs.RunMetrics) []byte {
	t.Helper()
	data, err := json.Marshal(metrics)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
