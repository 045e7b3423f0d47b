package harness

import (
	"hrwle/internal/htm"
	"hrwle/internal/kyoto"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
)

// RunKyoto measures one Fig. 9 point of the wicked workload. "Orig" is
// Kyoto Cabinet's original locking: a pthread-style outer RWL over real
// inner mutexes. Every other scheme elides or implements the outer lock,
// with the inner mutexes as kyoto.InnerFor decides.
func RunKyoto(ctx PointCtx, threads, writePct, totalOps int, seed uint64, scheme string) Result {
	cfg := kyoto.DefaultConfig()
	outer := scheme
	if scheme == "Orig" {
		outer = "RWL"
	}
	mc := machine.Config{CPUs: threads, MemWords: cfg.MemWords(), Seed: seed}
	return runClosed(ctx, mc, htm.Config{}, totalOps, SchemeFactory(outer), func(m *machine.Machine, _ *htm.System, lock rwlock.Lock) opFunc {
		db := kyoto.New(m, cfg)
		db.Populate()
		w := &kyoto.Wicked{DB: db, WritePct: writePct, Inner: kyoto.InnerFor(scheme)}
		return func(c *machine.CPU, th *htm.Thread) { w.Step(lock, th, c) }
	})
}

func kyotoFigure() *FigureSpec {
	f := &FigureSpec{
		ID:        "fig9",
		Title:     "Kyoto Cabinet CacheDB, wicked workload (throughput; w% = outer write-lock rate)",
		Schemes:   []string{"RW-LE_OPT", "RW-LE_PES", "HLE", "BRLock", "Orig", "SGL"},
		Threads:   []int{1, 4, 8, 16, 32, 64},
		WritePcts: []int{1, 5, 10},
		TimeLabel: "throughput (ops/s)",
	}
	f.Point = func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		return RunKyoto(ctx, threads, writePct, int(6000*scale),
			uint64(12000+threads*13+writePct), scheme)
	}
	return f
}
