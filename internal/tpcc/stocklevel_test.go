package tpcc

import (
	"testing"

	"hrwle/internal/core"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
)

// refStockLevel is Stock-Level computed raw from committed memory, with a
// host map for the distinct-item set: the reference the per-CPU stamped
// item set must agree with.
func refStockLevel(db *DB, w, d int64, threshold uint64) int {
	m := db.M
	di := db.district(w, d)
	seen := map[uint64]bool{}
	low := 0
	for i := 0; i < RecentOrders; i++ {
		order := machine.Addr(m.Peek(di + diRing + machine.Addr(i)))
		if order == 0 {
			continue
		}
		n := int(m.Peek(order + orOLCnt))
		for l := 0; l < n; l++ {
			iid := m.Peek(order + machine.Addr((l+1)*16) + olIID)
			if iid == 0 || seen[iid] {
				continue
			}
			seen[iid] = true
			if m.Peek(db.stockOf(w, int64(iid-1))+stQty) < threshold {
				low++
			}
		}
	}
	return low
}

// TestStockLevelMatchesReference runs a batch of New-Orders, then has four
// CPUs run Stock-Level over every district and threshold at once. Their
// scans park at Loads and interleave, which is why each CPU needs its own
// item set; every count must equal the map-based reference.
func TestStockLevelMatchesReference(t *testing.T) {
	const threads = 4
	sys, db := newDB(threads, threads*40, 3)
	lock := core.New(sys, core.Opt())
	wl := &Workload{DB: db, WritePct: 100}
	sys.M.Run(threads, func(c *machine.CPU) {
		for i := 0; i < 40; i++ {
			wl.Step(lock, sys.Thread(c.ID), c)
		}
	})
	if wl.Audit.NewOrders == 0 {
		t.Fatal("the batch ran no New-Orders")
	}
	thresholds := []uint64{10, 15, 20, 60, 200}
	sys.M.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for w := int64(0); w < db.Cfg.Warehouses; w++ {
			for d := int64(0); d < db.Cfg.DistrictsPerWH; d++ {
				for k := range thresholds {
					thr := thresholds[(k+c.ID)%len(thresholds)]
					if got, want := db.StockLevel(th, w, d, thr), refStockLevel(db, w, d, thr); got != want {
						t.Errorf("CPU %d: StockLevel(w%d, d%d, %d) = %d, reference %d", c.ID, w, d, thr, got, want)
					}
				}
			}
		}
	})
}

// TestStockLevelReexecutionAfterAbort aborts a Stock-Level on capacity
// mid-scan, after it has marked some items seen, and re-executes it on
// the same CPU: the re-execution must start from an empty item set and
// count what a fresh execution on another CPU counts.
func TestStockLevelReexecutionAfterAbort(t *testing.T) {
	cfg := smallCfg()
	m := machine.New(machine.Config{CPUs: 2, MemWords: cfg.MemWords(0), Seed: 4})
	sys := htm.NewSystem(m, htm.Config{ReadCapLines: 8})
	db := Build(m, cfg)
	const threshold = 200 // above every quantity: each item seen counts
	want := refStockLevel(db, 0, 0, threshold)
	var aborted htm.Status
	var again, fresh int
	m.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		aborted = th.Try(false, func() { db.StockLevel(th, 0, 0, threshold) })
		again = db.StockLevel(th, 0, 0, threshold)
	})
	m.Run(2, func(c *machine.CPU) {
		if c.ID == 1 {
			fresh = db.StockLevel(sys.Thread(1), 0, 0, threshold)
		}
	})
	if aborted.OK {
		t.Fatal("Stock-Level fit an 8-line read set; the test needs a mid-scan abort")
	}
	if again != fresh || fresh != want {
		t.Errorf("re-execution after abort counted %d, fresh execution %d, reference %d", again, fresh, want)
	}
}

// TestStockLevelNoHostAllocs pins that once a CPU has run Stock-Level,
// further executions reuse its item set and allocate nothing on the host.
func TestStockLevelNoHostAllocs(t *testing.T) {
	sys, db := newDB(1, 0, 5)
	var allocs float64
	sys.M.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		db.StockLevel(th, 0, 0, 15)
		allocs = testing.AllocsPerRun(50, func() { db.StockLevel(th, 1, 2, 15) })
	})
	if allocs != 0 {
		t.Errorf("Stock-Level made %.1f host allocations per execution, want 0", allocs)
	}
}
