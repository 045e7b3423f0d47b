package harness

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/rcu"
	"hrwle/internal/rwlock"
)

// RunRCUHashmap measures the tailored-code RCU hashmap on the sensitivity
// workload, for comparison against lock-based schemes running the
// unmodified hashmap (the paper's §2 point: RCU is the performance
// yardstick that demands per-structure surgery; RW-LE chases it with none).
func RunRCUHashmap(ctx PointCtx, p HashmapParams) Result {
	mc := machine.Config{CPUs: p.Threads, MemWords: p.memWords(), Seed: p.Seed, Paging: p.Paging}
	return runClosed(ctx, mc, p.HTM, p.TotalOps, nil, func(m *machine.Machine, _ *htm.System, _ rwlock.Lock) opFunc {
		h := rcu.NewMap(m, rcu.NewDomain(m), p.Buckets)
		h.Populate(p.Items)
		universe := int(p.Buckets * p.Items)
		return func(c *machine.CPU, th *htm.Thread) {
			key := uint64(c.Intn(universe))
			if c.Intn(100) < p.WritePct {
				if c.Intn(2) == 0 {
					h.Insert(th, key, key)
				} else {
					h.Remove(th, key)
				}
			} else {
				h.Lookup(th, key)
			}
			th.St.Ops++
		}
	})
}

func rcuFigure() *FigureSpec {
	f := &FigureSpec{
		ID:        "ext-rcu",
		Title:     "Extension: tailored-code RCU hashmap vs unmodified hashmap under RW-LE / RWL",
		Schemes:   []string{"RCU", "RW-LE_OPT", "RW-LE_PES", "RWL"},
		Threads:   []int{2, 8, 32, 80},
		WritePcts: []int{1, 10, 50},
		TimeLabel: "execution time (s)",
	}
	f.Point = func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		p := HashmapParams{
			Buckets: lowContentionBuckets, Items: 50, WritePct: writePct,
			Threads: threads, TotalOps: int(16000 * scale),
			Seed: uint64(23000 + threads*13 + writePct),
		}
		if scheme == "RCU" {
			return RunRCUHashmap(ctx, p)
		}
		return RunHashmap(ctx, p, SchemeFactory(scheme))
	}
	return f
}
