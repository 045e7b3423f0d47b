package harness

import (
	"sync"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
	"hrwle/internal/tpcc"
)

// RunTPCC measures one Fig. 10 point: the TPC-C mix with writePct% update
// transactions over an in-memory store.
func RunTPCC(ctx PointCtx, threads, writePct, totalOps int, seed uint64, mk rwlock.Factory) Result {
	cfg := tpcc.DefaultConfig()
	mc := machine.Config{CPUs: threads, MemWords: cfg.MemWords(int64(totalOps)), Seed: seed}
	return runClosed(ctx, mc, htm.Config{}, totalOps, mk, func(m *machine.Machine, _ *htm.System, lock rwlock.Lock) opFunc {
		wl := &tpcc.Workload{DB: tpcc.Build(m, cfg), WritePct: writePct}
		return func(c *machine.CPU, th *htm.Thread) { wl.Step(lock, th, c) }
	})
}

// tpccFigure reports speedup relative to SGL at one thread (the paper's
// Fig. 10 normalization: absolute throughput collapses by over an order of
// magnitude across the write mixes, hindering visualization).
//
//simlint:allow determinism baselineMu only guards the lazily computed SGL@1 baseline cache under a parallel sweep; the cached value is deterministic (own machine, fixed seed) regardless of which worker computes it
func tpccFigure() *FigureSpec {
	// The SGL@1 baseline is computed lazily once per writePct and shared by
	// every point of the figure. Under a parallel sweep several points may
	// ask for it at once, so the map is mutex-guarded; the computed value is
	// deterministic (own machine, fixed seed), so it does not matter which
	// worker computes it first.
	var baselineMu sync.Mutex
	baseline := map[int]float64{} // writePct → SGL@1 ops/s
	f := &FigureSpec{
		ID:        "fig10",
		Title:     "TPC-C: speedup vs SGL at 1 thread",
		Schemes:   []string{"RW-LE_OPT", "RW-LE_PES", "HLE", "BRLock", "RWL", "SGL"},
		Threads:   []int{1, 4, 8, 16, 32, 64, 80},
		WritePcts: []int{1, 10, 50},
		TimeLabel: "speedup vs SGL@1 thread",
	}
	f.Point = func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		ops := int(3000 * scale)
		baselineMu.Lock()
		b, ok := baseline[writePct]
		if !ok {
			// The baseline machine reports to this point's observer too (it
			// is replaced by the measured run below, matching the serial
			// exporter's last-machine-wins behavior).
			base := RunTPCC(ctx, 1, writePct, ops, uint64(15000+writePct), SchemeFactory("SGL"))
			b = base.Throughput()
			baseline[writePct] = b
		}
		baselineMu.Unlock()
		r := RunTPCC(ctx, threads, writePct, ops, uint64(15000+threads*13+writePct), SchemeFactory(scheme))
		if b > 0 {
			r.Speedup = r.Throughput() / b
		}
		return r
	}
	return f
}
