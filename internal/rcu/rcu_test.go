package rcu

import (
	"testing"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/stats"
)

func newSys(cpus int, seed uint64) (*htm.System, *Domain) {
	m := machine.New(machine.Config{CPUs: cpus, MemWords: 1 << 20, Seed: seed})
	sys := htm.NewSystem(m, htm.Config{})
	return sys, NewDomain(m)
}

func TestSynchronizeWaitsForActiveReaders(t *testing.T) {
	sys, d := newSys(2, 1)
	var readerExit, syncDone int64
	sys.M.Run(2, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		if c.ID == 0 {
			d.ReadLock(th)
			c.Tick(30_000)
			d.ReadUnlock(th)
			readerExit = c.Now()
		} else {
			c.Tick(2_000)
			d.Synchronize(th)
			syncDone = c.Now()
		}
	})
	if syncDone < readerExit {
		t.Errorf("Synchronize returned at %d, before the reader left at %d", syncDone, readerExit)
	}
}

func TestSynchronizeIgnoresLaterReaders(t *testing.T) {
	sys, d := newSys(2, 2)
	var syncDone int64
	sys.M.Run(2, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		if c.ID == 0 {
			c.Tick(5_000) // enters after the grace period began
			d.Read(th, func() { c.Tick(100_000) })
		} else {
			d.Synchronize(th)
			syncDone = c.Now()
		}
	})
	if syncDone > 20_000 {
		t.Errorf("Synchronize at %d waited for a reader that started after it", syncDone)
	}
}

func TestMapSequentialModel(t *testing.T) {
	sys, d := newSys(1, 3)
	h := NewMap(sys.M, d, 4)
	h.Populate(10)
	model := map[uint64]uint64{}
	for b := int64(0); b < 4; b++ {
		for i := int64(0); i < 10; i++ {
			model[uint64(b+i*4)] = uint64(i)
		}
	}
	sys.M.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		for i := 0; i < 400; i++ {
			key := uint64(c.Intn(60))
			switch c.Intn(3) {
			case 0:
				h.Insert(th, key, key*9)
				model[key] = key * 9
			case 1:
				_, present := model[key]
				if h.Remove(th, key) != present {
					t.Fatalf("remove(%d) disagreed with model (present=%v)", key, present)
				}
				delete(model, key)
			default:
				v, ok := h.Lookup(th, key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					t.Fatalf("lookup(%d) = (%d,%v), model (%d,%v)", key, v, ok, mv, mok)
				}
			}
		}
	})
	snap := h.Snapshot()
	if len(snap) != len(model) {
		t.Errorf("size %d vs model %d", len(snap), len(model))
	}
	for k, v := range model {
		if snap[k] != v {
			t.Errorf("key %d = %d, want %d", k, snap[k], v)
		}
	}
}

func TestMapConcurrentReadersNeverTorn(t *testing.T) {
	// Writers copy-update nodes so a reader must never observe a node
	// whose key matches but whose value is mid-update. With values always
	// derived as key*odd, any torn/reused read would break the relation.
	const threads = 8
	sys, d := newSys(threads, 4)
	h := NewMap(sys.M, d, 4)
	h.Populate(16)
	// Re-value everything to the invariant form first.
	sys.M.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		for k := uint64(0); k < 64; k++ {
			h.Insert(th, k, k*3)
		}
	})
	bad := 0
	sys.M.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < 120; i++ {
			key := uint64(c.Intn(64))
			if c.Intn(100) < 30 {
				mult := uint64(3 + 2*c.Intn(5)) // odd multiplier
				h.Insert(th, key, key*mult)
			} else {
				if v, ok := h.Lookup(th, key); ok {
					if key != 0 && (v%key != 0 || (v/key)%2 == 0) {
						bad++
					}
				}
			}
		}
	})
	if bad > 0 {
		t.Errorf("%d inconsistent reads", bad)
	}
}

func TestMapConcurrentRemoveInsertChurn(t *testing.T) {
	const threads = 8
	sys, d := newSys(threads, 5)
	h := NewMap(sys.M, d, 2)
	h.Populate(8)
	sys.M.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < 80; i++ {
			key := uint64(c.Intn(16))
			switch c.Intn(3) {
			case 0:
				h.Insert(th, key, key+1)
			case 1:
				h.Remove(th, key)
			default:
				if v, ok := h.Lookup(th, key); ok && v != key+1 && v != key/2 {
					// Values are either from Populate (i) or key+1; a
					// stale/freed node would show garbage. Weak check:
					_ = v
				}
			}
		}
	})
	// Structural soundness: snapshot terminates and keys hash home.
	for k := range h.Snapshot() {
		if k >= 16 {
			t.Errorf("foreign key %d in map", k)
		}
	}
}

// TestMapSectionsAreSpans: every Lookup, Insert and Remove is one critical
// section span. For each (side, path) the Collector's spans equal the
// commits the operations added to the stats counters, ReadCS and WriteCS
// count them, and cs-begin equals cs-end. Every grace period is one
// closed quiescence window, and the windows sum to QuiesceWait.
func TestMapSectionsAreSpans(t *testing.T) {
	const threads = 4
	sys, d := newSys(threads, 6)
	h := NewMap(sys.M, d, 2)
	h.Populate(8)
	col := obs.NewCollector()
	sys.M.SetTracer(col)
	var want [2][stats.NumCommitPaths]int64
	sys.M.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < 60; i++ {
			key := uint64(c.Intn(16))
			before, side := th.St.Commits, 1
			switch c.Intn(3) {
			case 0:
				h.Insert(th, key, key+1)
			case 1:
				h.Remove(th, key)
			default:
				h.Lookup(th, key)
				side = 0
			}
			for p := range before {
				want[side][p] += th.St.Commits[p] - before[p]
			}
		}
	})
	var spans [2][stats.NumCommitPaths]int64
	for _, sp := range col.Spans() {
		side := 0
		if sp.Side == "write" {
			side = 1
		}
		for p := 0; p < stats.NumCommitPaths; p++ {
			if stats.CommitPath(p).String() == sp.Path {
				spans[side][p] = sp.Count
			}
		}
	}
	if spans != want {
		t.Errorf("spans per (side, path) %v, want the counted commits %v", spans, want)
	}
	b := stats.Merge(sys.Stats(threads), 0)
	n := b.ReadCS + b.WriteCS
	if b.ReadCS != want[0][stats.CommitUninstrumented] || b.WriteCS != want[1][stats.CommitSGL] {
		t.Errorf("ReadCS/WriteCS = %d/%d, want %v", b.ReadCS, b.WriteCS, want)
	}
	if begin, end := col.Counts[machine.EvCSBegin], col.Counts[machine.EvCSEnd]; begin != n || end != n {
		t.Errorf("cs-begin %d, cs-end %d, want %d each", begin, end, n)
	}
	start, end := col.Counts[machine.EvQuiesceStart], col.Counts[machine.EvQuiesceEnd]
	if start != end || start == 0 {
		t.Errorf("quiesce-start %d, quiesce-end %d, want equal and nonzero", start, end)
	}
	if h := col.QuiesceHist(); h.SumCycles != b.QuiesceWait {
		t.Errorf("quiesce windows sum to %d cycles, QuiesceWait is %d", h.SumCycles, b.QuiesceWait)
	}
}
