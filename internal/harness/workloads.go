package harness

import (
	"hrwle/internal/hashmap"
	"hrwle/internal/htm"
	"hrwle/internal/kyoto"
	"hrwle/internal/machine"
	"hrwle/internal/rcu"
	"hrwle/internal/rwlock"
	"hrwle/internal/stmbench7"
	"hrwle/internal/tpcc"
)

// HashmapParams configures one point of the §4.1 sensitivity study.
type HashmapParams struct {
	Buckets  int64
	Items    int64 // initial items per bucket
	WritePct int
	Threads  int
	TotalOps int // fixed total work, split across threads (paper plots time)
	Seed     uint64
	Paging   machine.PagingConfig
}

// machineConfig sizes the point's machine; its memory is the bucket
// array plus node churn headroom.
func (p *HashmapParams) machineConfig() machine.Config {
	universe := p.Buckets * p.Items
	// Line-aligned nodes: 16 words each; 1.5x headroom for churn and
	// per-thread spare nodes, plus the bucket array and lock metadata.
	mem := universe*16*3/2 + p.Buckets + int64(p.Threads)*64 + 1<<14
	return machine.Config{CPUs: p.Threads, MemWords: mem, Seed: p.Seed, Paging: p.Paging}
}

// RunHashmap measures one sensitivity point under the given scheme.
func RunHashmap(ctx PointCtx, p HashmapParams, mk rwlock.Factory) Result {
	return runClosed(ctx, p.machineConfig(), p.TotalOps, mk, func(m *machine.Machine, sys *htm.System, lock rwlock.Lock) opFunc {
		h := hashmap.New(m, p.Buckets)
		h.Populate(p.Items)
		ws := make([]*hashmap.Worker, p.Threads)
		for i := range ws {
			ws[i] = h.NewWorker(lock, sys.Thread(i))
		}
		universe := int(p.Buckets * p.Items)
		return func(c *machine.CPU, th *htm.Thread) {
			w := ws[c.ID]
			key := uint64(c.Intn(universe))
			if c.Intn(100) < p.WritePct {
				// Write critical section: insert or remove, 50/50, to
				// keep the population in steady state.
				if c.Intn(2) == 0 {
					w.Insert(key)
				} else {
					w.Remove(key)
				}
			} else {
				w.Lookup(key)
			}
			th.St.Ops++
		}
	})
}

// runRCUHashmap measures the tailored-code RCU hashmap on the sensitivity
// workload, for comparison against lock-based schemes running the
// unmodified hashmap (the paper's §2 point: RCU is the performance
// yardstick that demands per-structure surgery; RW-LE chases it with none).
func runRCUHashmap(ctx PointCtx, p HashmapParams) Result {
	return runClosed(ctx, p.machineConfig(), p.TotalOps, nil, func(m *machine.Machine, _ *htm.System, _ rwlock.Lock) opFunc {
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

// runSTMBench7 measures one Fig. 8 point: the 24-operation default mix
// over a medium database, read-only operations under the read lock and
// update operations under the write lock.
func runSTMBench7(ctx PointCtx, scheme string, threads, writePct, totalOps int, seed uint64) Result {
	cfg := stmbench7.DefaultConfig()
	mc := machine.Config{CPUs: threads, MemWords: cfg.MemWords(), Seed: seed}
	return runClosed(ctx, mc, totalOps, SchemeFactory(scheme), func(m *machine.Machine, _ *htm.System, lock rwlock.Lock) opFunc {
		b := stmbench7.Build(m, cfg)
		mix := stmbench7.NewMix(writePct)
		return func(c *machine.CPU, th *htm.Thread) { mix.Step(b, lock, th, c) }
	})
}

// runKyoto measures one Fig. 9 point of the wicked workload. "Orig" is
// Kyoto Cabinet's original locking: a pthread-style outer RWL over real
// inner mutexes. Every other scheme elides or implements the outer lock,
// with the inner mutexes as kyoto.InnerFor decides.
func runKyoto(ctx PointCtx, scheme string, threads, writePct, totalOps int, seed uint64) Result {
	cfg := kyoto.DefaultConfig()
	outer := scheme
	if scheme == "Orig" {
		outer = "RWL"
	}
	mc := machine.Config{CPUs: threads, MemWords: cfg.MemWords(), Seed: seed}
	return runClosed(ctx, mc, totalOps, SchemeFactory(outer), func(m *machine.Machine, _ *htm.System, lock rwlock.Lock) opFunc {
		db := kyoto.New(m, cfg)
		db.Populate()
		w := &kyoto.Wicked{DB: db, WritePct: writePct, Inner: kyoto.InnerFor(scheme)}
		return func(c *machine.CPU, th *htm.Thread) { w.Step(lock, th, c) }
	})
}

// runTPCC measures one Fig. 10 point: the TPC-C mix with writePct% update
// transactions over an in-memory store.
func runTPCC(ctx PointCtx, scheme string, threads, writePct, totalOps int, seed uint64) Result {
	cfg := tpcc.DefaultConfig()
	mc := machine.Config{CPUs: threads, MemWords: cfg.MemWords(int64(totalOps)), Seed: seed}
	return runClosed(ctx, mc, totalOps, SchemeFactory(scheme), func(m *machine.Machine, _ *htm.System, lock rwlock.Lock) opFunc {
		wl := &tpcc.Workload{DB: tpcc.Build(m, cfg), WritePct: writePct}
		return func(c *machine.CPU, th *htm.Thread) { wl.Step(lock, th, c) }
	})
}
