package harness

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
	"hrwle/internal/stmbench7"
)

// RunSTMBench7 measures one Fig. 8 point: the 24-operation default mix
// over a medium database, read-only operations under the read lock and
// update operations under the write lock.
func RunSTMBench7(ctx PointCtx, threads, writePct, totalOps int, seed uint64, mk rwlock.Factory) Result {
	cfg := stmbench7.DefaultConfig()
	mc := machine.Config{CPUs: threads, MemWords: cfg.MemWords(), Seed: seed}
	return runClosed(ctx, mc, htm.Config{}, totalOps, mk, func(m *machine.Machine, _ *htm.System, lock rwlock.Lock) opFunc {
		b := stmbench7.Build(m, cfg)
		mix := stmbench7.NewMix(writePct)
		return func(c *machine.CPU, th *htm.Thread) { mix.Step(b, lock, th, c) }
	})
}

func stmbench7Figure() *FigureSpec {
	f := &FigureSpec{
		ID:        "fig8",
		Title:     "STMBench7: 24-op default mix, medium DB (throughput)",
		Schemes:   []string{"RW-LE_OPT", "RW-LE_PES", "HLE", "BRLock", "RWL", "SGL"},
		Threads:   []int{2, 4, 8, 16, 32, 64, 80},
		WritePcts: []int{10, 50, 90},
		TimeLabel: "throughput (ops/s)",
	}
	f.Point = func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		return RunSTMBench7(ctx, threads, writePct, int(4000*scale),
			uint64(8000+threads*13+writePct), SchemeFactory(scheme))
	}
	return f
}
