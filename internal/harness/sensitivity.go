package harness

import (
	"fmt"

	"hrwle/internal/hashmap"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
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
	HTM      htm.Config
}

// memWords sizes simulated memory for the point: bucket array + node churn
// headroom.
func (p *HashmapParams) memWords() int64 {
	universe := p.Buckets * p.Items
	// Line-aligned nodes: 16 words each; 1.5x headroom for churn and
	// per-thread spare nodes, plus the bucket array and lock metadata.
	return universe*16*3/2 + p.Buckets + int64(p.Threads)*64 + 1<<14
}

// RunHashmap measures one sensitivity point under the given scheme.
func RunHashmap(ctx PointCtx, p HashmapParams, mk rwlock.Factory) Result {
	mc := machine.Config{CPUs: p.Threads, MemWords: p.memWords(), Seed: p.Seed, Paging: p.Paging}
	return runClosed(ctx, mc, p.HTM, p.TotalOps, mk, func(m *machine.Machine, sys *htm.System, lock rwlock.Lock) opFunc {
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

// sensitivityFigure builds a figure spec for one capacity×contention
// scenario of the paper's §4.1.
func sensitivityFigure(id, title string, buckets, items int64, baseOps int, paging machine.PagingConfig) *FigureSpec {
	return &FigureSpec{
		ID:        id,
		Title:     title,
		Schemes:   []string{"RW-LE_OPT", "RW-LE_PES", "HLE", "BRLock", "RWL", "SGL"},
		Threads:   []int{2, 4, 8, 16, 32, 64, 80},
		WritePcts: []int{1, 10, 90},
		TimeLabel: "execution time (s)",
		Point: func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
			p := HashmapParams{
				Buckets:  buckets,
				Items:    items,
				WritePct: writePct,
				Threads:  threads,
				TotalOps: int(float64(baseOps) * scale),
				Seed:     uint64(1000 + threads*13 + writePct),
				Paging:   paging,
			}
			return RunHashmap(ctx, p, SchemeFactory(scheme))
		},
	}
}

// fig6Paging returns the VM-subsystem stress configuration for the
// low-capacity/low-contention scenario: the residency limit is set below
// the hashmap footprint so demand paging stays active throughout the run,
// reproducing the page-fault aborts the paper attributes to the VM
// subsystem in this scenario.
func fig6Paging(buckets, items int64) machine.PagingConfig {
	footprintPages := (buckets*items*16 + buckets) / 512
	return machine.PagingConfig{
		Enabled:       true,
		PageWords:     512,
		ResidentLimit: footprintPages * 3 / 4,
		TLBEntries:    128,
	}
}

// lowContentionBuckets is the bucket count for the low-contention
// scenarios. The paper uses 100,000 on a 512 GB POWER8; this default is
// scaled to container memory while keeping per-op conflict probability
// negligible (see EXPERIMENTS.md).
const lowContentionBuckets = 4096

// SensitivityFigures returns Figs. 3-6.
func SensitivityFigures() []*FigureSpec {
	return []*FigureSpec{
		sensitivityFigure("fig3", "Hashmap: high capacity, high contention (1 bucket × 200 items)",
			1, 200, 8000, machine.PagingConfig{}),
		sensitivityFigure("fig4", "Hashmap: high capacity, low contention (4096 buckets × 200 items)",
			lowContentionBuckets, 200, 8000, machine.PagingConfig{}),
		sensitivityFigure("fig5", "Hashmap: low capacity, high contention (1 bucket × 50 items)",
			1, 50, 16000, machine.PagingConfig{}),
		sensitivityFigure("fig6", "Hashmap: low capacity, low contention (4096 buckets × 50 items, VM stress)",
			lowContentionBuckets, 50, 16000, fig6Paging(lowContentionBuckets, 50)),
	}
}

// FairnessFigure returns Fig. 7: the fairness stress — the fig. 3 scenario
// with ROTs disabled (stressing the non-speculative fallback, the main
// source of reader starvation), comparing base RW-LE against the fair
// variant of §3.3.
func FairnessFigure() *FigureSpec {
	mkNoROT := func(fair bool, name string) rwlock.Factory {
		return func(s *htm.System) rwlock.Lock {
			return newCoreLock(s, 5, 0, fair, name)
		}
	}
	f := &FigureSpec{
		ID:        "fig7",
		Title:     "Fairness stress: fig. 3 scenario, ROTs disabled (RW-LE vs RW-LE_FAIR)",
		Schemes:   []string{"RW-LE", "RW-LE_FAIR"},
		Threads:   []int{2, 4, 8, 16, 32, 64, 80},
		WritePcts: []int{10, 50, 90},
		TimeLabel: "execution time (s)",
	}
	f.Point = func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		p := HashmapParams{
			Buckets:  1,
			Items:    200,
			WritePct: writePct,
			Threads:  threads,
			TotalOps: int(8000 * scale),
			Seed:     uint64(7000 + threads*13 + writePct),
		}
		return RunHashmap(ctx, p, mkNoROT(scheme == "RW-LE_FAIR", scheme))
	}
	return f
}

// RetriesFigure returns the §4.1 retry-budget ablation: the paper reports
// that 5 attempts per speculative path is best on average; this sweeps the
// budget on the fig. 4 workload.
func RetriesFigure() *FigureSpec {
	budgets := []int{1, 2, 5, 8, 16}
	schemes := make([]string, len(budgets))
	budgetOf := make(map[string]int, len(budgets))
	for i, b := range budgets {
		schemes[i] = fmt.Sprintf("retry=%d", b)
		budgetOf[schemes[i]] = b
	}
	f := &FigureSpec{
		ID:        "retries",
		Title:     "Ablation: HTM/ROT retry budget (fig. 4 workload)",
		Schemes:   schemes,
		Threads:   []int{8, 32, 80},
		WritePcts: []int{10},
		TimeLabel: "execution time (s)",
	}
	f.Point = func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		budget := budgetOf[scheme]
		p := HashmapParams{
			Buckets: lowContentionBuckets, Items: 200, WritePct: writePct,
			Threads: threads, TotalOps: int(8000 * scale),
			Seed: uint64(9000 + threads*13 + budget),
		}
		return RunHashmap(ctx, p, func(s *htm.System) rwlock.Lock {
			return newCoreLock(s, budget, budget, false, scheme)
		})
	}
	return f
}

// SplitFigure returns the §3.3 split-lock ablation: the pseudo-code's
// unified wlock (the default) vs split NS/ROT locks with lazy ROT
// subscription, on the fig. 6 workload whose paging-induced transient
// aborts stress exactly the HTM/ROT interaction the optimization targets.
func SplitFigure() *FigureSpec {
	f := &FigureSpec{
		ID:        "split",
		Title:     "Ablation: unified lock word (default) vs split NS/ROT locks + lazy subscription (fig. 6 workload)",
		Schemes:   []string{"RW-LE_OPT", "RW-LE_SPLIT"},
		Threads:   []int{2, 8, 32, 80},
		WritePcts: []int{10, 90},
		TimeLabel: "execution time (s)",
	}
	f.Point = func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
		p := HashmapParams{
			Buckets: lowContentionBuckets, Items: 50, WritePct: writePct,
			Threads: threads, TotalOps: int(16000 * scale),
			Seed:   uint64(11000 + threads*13 + writePct),
			Paging: fig6Paging(lowContentionBuckets, 50),
		}
		return RunHashmap(ctx, p, SchemeFactory(scheme))
	}
	return f
}
