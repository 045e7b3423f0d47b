package harness

import (
	"bytes"
	"encoding/json"
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

// renderGolden sweeps goldenSpec serially, giving each point the PointCtx
// mkCtx returns (nil: no context), and renders the figure.
func renderGolden(t *testing.T, mkCtx func(int) PointCtx) ([]byte, []Result) {
	t.Helper()
	spec := goldenSpec()
	results := spec.runPoints(0.02, nil, 1, mkCtx)
	var buf bytes.Buffer
	Print(&buf, spec, results)
	return buf.Bytes(), results
}

// TestTracingDoesNotChangeResults is the zero-cost guard: the same sweep
// with a Collector observing every machine must print byte-identical output
// and identical cycle counts.
func TestTracingDoesNotChangeResults(t *testing.T) {
	base, baseResults := renderGolden(t, nil)

	installs := 0
	traced, tracedResults := renderGolden(t, func(int) PointCtx {
		return PointCtx{Observe: func(m *machine.Machine) {
			installs++
			m.SetTracer(machine.MultiTracer{obs.NewCollector(), &machine.CountTracer{}})
		}}
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

// TestRunWithMetricsMatchesPlainRun checks that the metrics exporter
// produces the same Results as a plain sweep, one RunMetrics per scheme in
// the figure's scheme order, and that a second export is identical (the
// determinism contract of EXPERIMENTS.md).
func TestRunWithMetricsMatchesPlainRun(t *testing.T) {
	spec := goldenSpec()
	plain := spec.RunParallel(0.02, nil, 1)

	withMetrics, metrics1, _ := RunWithMetrics(spec, 0.02, nil, 1)
	_, metrics2, _ := RunWithMetrics(spec, 0.02, nil, 1)

	if len(withMetrics) != len(plain) {
		t.Fatalf("result counts differ: %d vs %d", len(withMetrics), len(plain))
	}
	for i := range plain {
		if plain[i] != withMetrics[i] {
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

// metricsJSON encodes metrics for byte comparison.
func metricsJSON(t *testing.T, metrics []*obs.RunMetrics) []byte {
	t.Helper()
	data, err := json.Marshal(metrics)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
