package harness

import (
	"slices"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	figs := Registry()
	for _, id := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "retries", "split"} {
		f, ok := figs[id]
		if !ok {
			t.Fatalf("figure %s missing from registry", id)
		}
		if f.Title == "" || f.Point == nil || len(f.Schemes) == 0 || len(f.Threads) == 0 || len(f.WritePcts) == 0 {
			t.Errorf("figure %s incompletely specified", id)
		}
	}
}

func TestSchemeFactoryNames(t *testing.T) {
	// The paper's menu (-schemes all, -list, CLI name validation) is the
	// head of the scheme table; pin it so extension rows cannot leak in.
	want := []string{"RW-LE_OPT", "RW-LE_PES", "RW-LE_FAIR", "RW-LE_SPLIT", "RW-LE_basic", "HLE", "BRLock", "RWL", "SGL"}
	if got := AllSchemes(); !slices.Equal(got, want) {
		t.Errorf("AllSchemes() = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown scheme did not panic")
		}
	}()
	SchemeFactory("nope")
}

// TestEveryFigurePointRuns exercises one tiny point of every figure with
// every scheme — an end-to-end integration test of the whole stack.
func TestEveryFigurePointRuns(t *testing.T) {
	figs := Registry()
	for _, id := range SortedIDs(figs) {
		f := figs[id]
		for _, scheme := range f.Schemes {
			r := f.Point(PointCtx{}, scheme, 2, f.WritePcts[0], 0.01)
			if r.Cycles <= 0 {
				t.Errorf("%s/%s: no virtual time elapsed", id, scheme)
			}
			if r.B.Ops <= 0 {
				t.Errorf("%s/%s: no operations completed", id, scheme)
			}
		}
	}
}

func TestPointDeterminism(t *testing.T) {
	f := Registry()["fig3"]
	a := f.Point(PointCtx{}, "RW-LE_OPT", 4, 10, 0.02)
	b := f.Point(PointCtx{}, "RW-LE_OPT", 4, 10, 0.02)
	if a.Cycles != b.Cycles || a.B != b.B {
		t.Errorf("same point differs across runs: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestRunAndPrint(t *testing.T) {
	f := Registry()["fig3"]
	spec := *f
	spec.Threads = []int{2}
	spec.WritePcts = []int{10}
	spec.Schemes = []string{"RW-LE_OPT", "SGL"}
	results := spec.RunParallel(0.01, nil, 1)
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	var sb strings.Builder
	Print(&sb, &spec, results)
	out := sb.String()
	for _, want := range []string{"fig3", "RW-LE_OPT", "SGL", "abort breakdown", "commit breakdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed figure missing %q", want)
		}
	}
}

func TestRWLEBeatsHLEOnCapacityWorkload(t *testing.T) {
	// The paper's headline claim at one representative point: fig. 3
	// (high capacity, high contention), read-dominated, 8 threads.
	f := Registry()["fig3"]
	rwle := f.Point(PointCtx{}, "RW-LE_OPT", 8, 10, 0.1)
	hle := f.Point(PointCtx{}, "HLE", 8, 10, 0.1)
	if rwle.Cycles >= hle.Cycles {
		t.Errorf("RW-LE (%d cycles) not faster than HLE (%d cycles) on the capacity workload", rwle.Cycles, hle.Cycles)
	}
}

// TestAdaptiveStateExposed pins that the self-tuning scheme's controller
// state reaches the Result (and from there the metrics JSON): an
// RW-LE_ADAPT point reports a budget and win rate, on the hashmap and on
// an application workload alike; a fixed-budget point reports nothing.
func TestAdaptiveStateExposed(t *testing.T) {
	p := HashmapParams{
		Buckets: 1, Items: 200, WritePct: 50,
		Threads: 8, TotalOps: 2000, Seed: 42,
	}
	r := RunHashmap(PointCtx{}, p, SchemeFactory("RW-LE_ADAPT"))
	if r.Adaptive == nil {
		t.Fatal("RW-LE_ADAPT point has no Adaptive state")
	}
	if r.Adaptive.Budget < 0 || r.Adaptive.Budget > 8 {
		t.Errorf("adaptive budget = %d, outside [0, 8]", r.Adaptive.Budget)
	}
	if r.Adaptive.WinRate10 < -1 || r.Adaptive.WinRate10 > 10 {
		t.Errorf("adaptive win rate = %d tenths, outside [-1, 10]", r.Adaptive.WinRate10)
	}
	if r := RunHashmap(PointCtx{}, p, SchemeFactory("RW-LE_OPT")); r.Adaptive != nil {
		t.Errorf("fixed-budget point reports adaptive state %+v", r.Adaptive)
	}
	if r := runTPCC(PointCtx{}, "RW-LE_ADAPT", 4, 50, 400, 42); r.Adaptive == nil {
		t.Error("RW-LE_ADAPT TPC-C point has no Adaptive state")
	}
}

// TestFig10BaselineKeyedByScale: fig10 shares its SGL@1 baseline between
// points, so a spec whose Point runs at a second scale must not divide by
// the first scale's baseline. SGL at one thread is its own baseline, so
// its speedup must match a fresh spec's at every scale.
func TestFig10BaselineKeyedByScale(t *testing.T) {
	shared := Registry()["fig10"]
	for _, scale := range []float64{0.02, 0.04} {
		got := shared.Point(PointCtx{}, "SGL", 1, 10, scale).Speedup
		want := Registry()["fig10"].Point(PointCtx{}, "SGL", 1, 10, scale).Speedup
		if got != want {
			t.Errorf("scale %v: SGL@1 speedup %.4f on a reused spec, %.4f on a fresh one", scale, got, want)
		}
	}
}
