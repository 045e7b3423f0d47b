package harness

import "testing"

// TestBenchCyclesMatchBaseline is the bench regression gate: the 24-point
// bench mini-sweep must simulate exactly the cycle count recorded in
// results/BENCH_PR7.json (and pinned again in bench/bench_test.go).
// Engine rewrites may only change wall-clock speed; any sim_cycles drift
// is a semantics regression. A change that alters simulation semantics on
// purpose updates this figure alongside the golden results.
func TestBenchCyclesMatchBaseline(t *testing.T) {
	const want = 38_977_216
	spec := BenchSpec()
	var cycles int64
	for _, w := range spec.WritePcts {
		for _, n := range spec.Threads {
			for _, s := range spec.Schemes {
				r := spec.Point(PointCtx{}, s, n, w, BenchScale)
				cycles += r.Cycles
			}
		}
	}
	if cycles != want {
		t.Fatalf("bench sweep sim_cycles drifted: got %d, want %d", cycles, want)
	}
}
