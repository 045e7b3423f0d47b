package htm_test

import (
	"testing"

	"hrwle/internal/core"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/rcu"
	"hrwle/internal/stats"
)

// allocSys builds a one-CPU machine plus HTM thread and a 64-word line for
// the alloc probes, and warms every lazily-grown structure (write-set
// tables, abort signal) so steady-state measurements start clean.
func allocSys(t *testing.T) (*machine.Machine, *htm.Thread, machine.Addr) {
	t.Helper()
	m := machine.New(machine.Config{CPUs: 1, MemWords: 1 << 16})
	sys := htm.NewSystem(m, htm.Config{})
	th := sys.Thread(0)
	var base machine.Addr
	m.Run(1, func(c *machine.CPU) {
		base = c.AllocAligned(64)
		th.Try(false, func() {
			th.Store(base, 1)
			th.Abort(stats.AbortExplicit)
		})
		th.Try(false, func() { th.Store(base, th.Load(base)+1) })
	})
	return m, th, base
}

// assertZeroAllocs measures body with testing.AllocsPerRun and fails if
// the steady-state path allocates. These are the simulator's hottest
// loops: a sweep executes them millions of times, so a single byte per op
// dominates the host-side profile.
func assertZeroAllocs(t *testing.T, name string, body func()) {
	t.Helper()
	if n := testing.AllocsPerRun(200, body); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

// TestFastPathsDoNotAllocate pins the transactional read, write, commit
// and abort paths at zero host allocations per operation.
func TestFastPathsDoNotAllocate(t *testing.T) {
	m, th, base := allocSys(t)
	m.Run(1, func(c *machine.CPU) {
		assertZeroAllocs(t, "tx read", func() {
			th.Try(false, func() {
				for i := 0; i < 8; i++ {
					th.Load(base + machine.Addr(i))
				}
			})
		})
		assertZeroAllocs(t, "tx write+commit", func() {
			th.Try(false, func() {
				for i := 0; i < 8; i++ {
					a := base + machine.Addr(i)
					th.Store(a, th.Load(a)+1)
				}
			})
		})
		assertZeroAllocs(t, "tx abort", func() {
			th.Try(false, func() {
				th.Store(base, 1)
				th.Abort(stats.AbortExplicit)
			})
		})
		assertZeroAllocs(t, "non-tx load/store", func() {
			th.Store(base, th.Load(base)+1)
		})
		assertZeroAllocs(t, "stream load", func() {
			th.Try(false, func() { th.LoadStream(base) })
			th.LoadStream(base)
		})
		assertZeroAllocs(t, "cas", func() {
			v := th.Load(base)
			th.CAS(base, v, v+1)
		})
	})
}

// TestConflictAbortDoesNotAllocate pins the conflict doom and the abort it
// ends in: CPU 1 keeps storing to the line CPU 0's transactions write, so
// every measured transaction is doomed and aborts at commit.
func TestConflictAbortDoesNotAllocate(t *testing.T) {
	m := machine.New(machine.Config{CPUs: 2, MemWords: 1 << 16})
	sys := htm.NewSystem(m, htm.Config{})
	var base machine.Addr
	m.Run(1, func(c *machine.CPU) { base = c.AllocAligned(64) })
	done := false
	m.Run(2, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		if c.ID == 1 {
			for !done {
				th.Store(base, 1)
				c.Tick(20)
			}
			return
		}
		conflict := func() {
			th.Try(false, func() {
				th.Store(base, 2)
				c.Tick(200)
			})
		}
		conflict() // warm the abort path
		before := th.St.Aborts[stats.AbortConflictNonTx]
		assertZeroAllocs(t, "conflict doom+abort", conflict)
		if n := th.St.Aborts[stats.AbortConflictNonTx] - before; n != 201 {
			t.Errorf("%d conflict aborts in 201 transactions, want every one", n)
		}
		done = true
	})
}

// TestROTPathDoesNotAllocate covers the read-only-transaction (suspended
// write) path separately: ROT begin/commit takes a different route through
// the lock-word subscription logic.
func TestROTPathDoesNotAllocate(t *testing.T) {
	m, th, base := allocSys(t)
	m.Run(1, func(c *machine.CPU) {
		// Warm the ROT path once before measuring.
		th.Try(true, func() { th.Load(base) })
		assertZeroAllocs(t, "rot read+commit", func() {
			th.Try(true, func() {
				for i := 0; i < 8; i++ {
					th.Load(base + machine.Addr(i))
				}
			})
		})
	})
}

// TestQuiescenceDoesNotAllocate pins the reader-clock drains of
// RW-LE_basic's writer and of RCU's grace period at zero host allocations:
// Clocks.Snapshot reuses the thread's scan buffer, for RW-LE's scan too.
func TestQuiescenceDoesNotAllocate(t *testing.T) {
	m := machine.New(machine.Config{CPUs: 2, MemWords: 1 << 16})
	sys := htm.NewSystem(m, htm.Config{})
	basic := core.NewBasic(sys)
	d := rcu.NewDomain(m)
	m.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		write := func() { basic.Write(th, func() {}) }
		grace := func() { d.Synchronize(th) }
		write() // warm the scan buffer
		assertZeroAllocs(t, "basic write quiescence", write)
		assertZeroAllocs(t, "rcu synchronize", grace)
	})
}
