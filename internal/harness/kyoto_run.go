package harness

import (
	"hrwle/internal/htm"
	"hrwle/internal/kyoto"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
	"hrwle/internal/stats"
)

// kyotoScheme resolves the Fig. 9 scheme set: "Orig" is Kyoto Cabinet's
// original locking (pthread-style outer RWL + real inner mutexes); HLE
// elides both lock levels (inner mutexes become subscriptions); everything
// else elides or implements the outer lock and keeps the inner mutexes
// real.
func kyotoScheme(name string) (rwlock.Factory, kyoto.InnerPolicy) {
	if name == "Orig" {
		return SchemeFactory("RWL"), kyoto.InnerReal
	}
	pol := kyoto.InnerReal
	if name == "HLE" {
		pol = kyoto.InnerElide
	}
	return SchemeFactory(name), pol
}

// RunKyoto measures one Fig. 9 point of the wicked workload.
func RunKyoto(ctx PointCtx, threads, writePct, totalOps int, seed uint64, scheme string) Result {
	cfg := kyoto.DefaultConfig()
	m := machine.New(machine.Config{
		CPUs:     threads,
		MemWords: cfg.MemWords(),
		Seed:     seed,
	})
	ctx.observe(m)
	sys := htm.NewSystem(m, htm.Config{})
	mk, pol := kyotoScheme(scheme)
	lock := mk(sys)
	db := kyoto.New(m, cfg)
	db.Populate()
	w := &kyoto.Wicked{DB: db, WritePct: writePct, Inner: pol}

	opsPerThread := totalOps / threads
	if opsPerThread == 0 {
		opsPerThread = 1
	}
	cycles := m.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < opsPerThread; i++ {
			w.Step(lock, th, c)
		}
	})
	return Result{Cycles: cycles, B: stats.Merge(sys.Stats(threads), cycles)}
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

func init() { registerAppFigure(kyotoFigure()) }
