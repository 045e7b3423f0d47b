package core

import (
	"testing"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

func TestReadNesting(t *testing.T) {
	sys := newSys(2, 30)
	lock := New(sys, Opt())
	a := sys.M.AllocRawAligned(1)
	sys.M.Poke(a, 5)
	var inner, innermost uint64
	sys.M.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		lock.Read(th, func() {
			lock.Read(th, func() {
				inner = th.Load(a)
				lock.Read(th, func() { innermost = th.Load(a) })
			})
		})
	})
	if inner != 5 || innermost != 5 {
		t.Errorf("nested reads got %d/%d", inner, innermost)
	}
	// The clock must be even (fully exited) afterwards.
	if clk := sys.M.Peek(lock.clocks.Addr(0)); clk%2 != 0 {
		t.Errorf("clock left odd after nested reads: %d", clk)
	}
}

func TestWriteNesting(t *testing.T) {
	sys := newSys(2, 31)
	lock := New(sys, Opt())
	a := sys.M.AllocRawAligned(1)
	sys.M.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		lock.Write(th, func() {
			th.Store(a, 1)
			lock.Write(th, func() { th.Store(a, th.Load(a)+1) })
			lock.Read(th, func() {
				if th.Load(a) != 2 {
					t.Error("nested read inside write saw stale data")
				}
			})
		})
	})
	if sys.M.Peek(a) != 2 {
		t.Errorf("final = %d, want 2", sys.M.Peek(a))
	}
}

func TestWriteInsideReadPanics(t *testing.T) {
	sys := newSys(1, 32)
	lock := New(sys, Opt())
	defer func() {
		if recover() == nil {
			t.Error("lock upgrade did not panic")
		}
	}()
	sys.M.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		lock.Read(th, func() {
			lock.Write(th, func() {})
		})
	})
}

func TestNestedSnapshotConsistency(t *testing.T) {
	// The full stress with nested sections sprinkled in.
	sys := newSys(8, 33)
	lock := New(sys, Opt())
	words := make([]machine.Addr, 4)
	for i := range words {
		words[i] = sys.M.AllocRawAligned(1)
	}
	sys.M.Run(8, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < 60; i++ {
			if c.Intn(100) < 25 {
				lock.Write(th, func() {
					v := th.Load(words[0]) + 1
					lock.Write(th, func() { // nested
						for _, w := range words {
							th.Store(w, v)
						}
					})
				})
			} else {
				lock.Read(th, func() {
					lock.Read(th, func() { // nested
						v := th.Load(words[0])
						for _, w := range words[1:] {
							if th.Load(w) != v {
								t.Error("torn snapshot in nested read")
							}
						}
					})
				})
			}
		}
	})
}

func TestAdaptiveControllerShrinksOnFailure(t *testing.T) {
	a := newAdaptiveController()
	// 10 windows of pure HTM failure: budget must collapse toward 0.
	for w := 0; w < 10; w++ {
		for i := 0; i < a.window; i++ {
			a.record(true, false)
		}
	}
	if a.Budget() > 1 {
		t.Errorf("budget = %d after sustained HTM failure, want <= 1", a.Budget())
	}
}

func TestAdaptiveControllerGrowsOnSuccess(t *testing.T) {
	a := newAdaptiveController()
	for w := 0; w < 10; w++ {
		for i := 0; i < a.window; i++ {
			a.record(true, true)
		}
	}
	if a.Budget() != a.maxBudget {
		t.Errorf("budget = %d after sustained HTM success, want %d", a.Budget(), a.maxBudget)
	}
}

func TestAdaptiveControllerWinRateExposed(t *testing.T) {
	a := newAdaptiveController()
	// 6 wins out of 8 attempts in an otherwise HTM-free window: the
	// introspection rate must report tenths of the attempted sections.
	for i := 0; i < a.window; i++ {
		a.record(i < 8, i < 6)
	}
	if got := a.WinRate10(); got != 7 {
		t.Errorf("WinRate10() = %d after 6/8 HTM wins, want 7", got)
	}
	// A window with no HTM attempts at all reports the -1 sentinel.
	for i := 0; i < a.window; i++ {
		a.record(false, false)
	}
	if got := a.WinRate10(); got != -1 {
		t.Errorf("WinRate10() = %d after an HTM-free window, want -1", got)
	}
}

func TestAdaptiveControllerRecoversFromZero(t *testing.T) {
	a := newAdaptiveController()
	for w := 0; w < 10; w++ {
		for i := 0; i < a.window; i++ {
			a.record(true, false)
		}
	}
	// With the budget near zero, HTM is no longer attempted; the
	// controller must re-probe rather than stay stuck.
	for w := 0; w < 2; w++ {
		for i := 0; i < a.window; i++ {
			a.record(false, false)
		}
	}
	if a.Budget() < 1 {
		t.Errorf("budget = %d, controller cannot re-probe HTM", a.Budget())
	}
}

func TestAdaptiveConvergesToROTOnCapacityWorkload(t *testing.T) {
	// Critical sections that always exceed the read budget: the adaptive
	// lock should stop attempting HTM and look like RW-LE_PES.
	m := machine.New(machine.Config{CPUs: 2, MemWords: 1 << 18, Seed: 3})
	sys := htm.NewSystem(m, htm.Config{ReadCapLines: 8, WriteCapLines: 64})
	o := Opt()
	o.Adaptive = true
	lock := New(sys, o)
	arr := sys.M.AllocRawAligned(32 * 16)
	sys.M.Run(2, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < 200; i++ {
			lock.Write(th, func() {
				var s uint64
				for j := 0; j < 32; j++ {
					s += th.Load(arr + machine.Addr(j*16))
				}
				th.Store(arr, s+1)
			})
		}
	})
	if got := lock.adapt.Budget(); got > 1 {
		t.Errorf("adaptive budget = %d on a pure-capacity workload, want <= 1", got)
	}
	b := stats.Merge(sys.Stats(2), 0)
	// Early sections may burn HTM attempts, but the steady state must be
	// ROT: far more ROT commits than capacity aborts in the tail.
	if b.Commits[stats.CommitROT] < 300 {
		t.Errorf("ROT commits = %d, adaptation did not converge", b.Commits[stats.CommitROT])
	}
}

func TestAdaptiveKeepsHTMOnCleanWorkload(t *testing.T) {
	sys := newSys(2, 40)
	o := Opt()
	o.Adaptive = true
	lock := New(sys, o)
	// Disjoint per-thread data: small, conflict-free write sections that
	// HTM handles perfectly.
	a0 := sys.M.AllocRawAligned(1)
	a1 := sys.M.AllocRawAligned(1)
	sys.M.Run(2, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		mine := a0
		if c.ID == 1 {
			mine = a1
		}
		for i := 0; i < 200; i++ {
			lock.Write(th, func() { th.Store(mine, th.Load(mine)+1) })
			c.Tick(int64(c.Intn(400)))
		}
	})
	if got := lock.adapt.Budget(); got < 5 {
		t.Errorf("adaptive budget = %d on a clean workload, want >= 5", got)
	}
	b := stats.Merge(sys.Stats(2), 0)
	if b.CommitPct(stats.CommitHTM) < 80 {
		t.Errorf("HTM commit share %.1f%%, want >= 80%%", b.CommitPct(stats.CommitHTM))
	}
}

func TestEarlyAbortCutsQuiescenceShort(t *testing.T) {
	// A writer whose speculation is doomed mid-quiescence by a new reader
	// should, with EarlyAbort, give up before draining a long-running
	// unrelated reader.
	run := func(early bool) int64 {
		sys := newSys(3, 44)
		o := Opt()
		o.EarlyAbort = early
		lock := New(sys, o)
		x := sys.M.AllocRawAligned(1)
		var firstFailure int64
		sys.M.Run(3, func(c *machine.CPU) {
			th := sys.Thread(c.ID)
			switch c.ID {
			case 0: // long reader of unrelated data, drains slowly
				lock.Read(th, func() { c.Tick(80_000) })
			case 1: // writer: enters quiescence while reader 0 is in CS
				c.Tick(2_000)
				lock.Write(th, func() { th.Store(x, 1) })
				if firstFailure == 0 {
					firstFailure = c.Now()
				}
			case 2: // new reader that touches x mid-quiescence: dooms writer
				c.Tick(6_000)
				lock.Read(th, func() { th.Load(x) })
			}
		})
		return firstFailure
	}
	withEarly := run(true)
	without := run(false)
	if withEarly >= without {
		t.Errorf("EarlyAbort finished at %d, plain at %d: no time saved", withEarly, without)
	}
}
