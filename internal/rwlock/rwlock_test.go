package rwlock_test

import (
	"testing"

	"hrwle/internal/harness"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
)

// TestFactoryContract instantiates every scheme-table entry on a fresh system and
// checks the rwlock.Lock contract: a non-empty stable Name matching the
// scheme, and Read/Write sections that run their bodies with mutual
// exclusion effects visible afterwards.
func TestFactoryContract(t *testing.T) {
	for _, name := range harness.TableSchemes() {
		t.Run(name, func(t *testing.T) {
			f := harness.SchemeFactory(name)
			if f == nil {
				t.Fatalf("SchemeFactory(%q) returned nil factory", name)
			}

			const threads = 2
			m := machine.New(machine.Config{CPUs: threads, MemWords: 1 << 12, Seed: 7})
			sys := htm.NewSystem(m, htm.Config{})
			var lk rwlock.Lock = f(sys)
			if lk == nil {
				t.Fatalf("factory for %q built nil lock", name)
			}
			if lk.Name() != name {
				t.Errorf("Name() = %q, want %q", lk.Name(), name)
			}
			if lk.Name() != lk.Name() {
				t.Errorf("Name() is not stable")
			}

			// Two threads each run write sections incrementing a shared
			// counter and read sections observing it. Reads snapshot into a
			// local inside the section (speculative bodies may re-run; only
			// the committed attempt counts).
			const opsPer = 8
			ctr := m.AllocRawAligned(1)
			reads := make([]uint64, threads)
			m.Run(threads, func(c *machine.CPU) {
				th := sys.Thread(c.ID)
				for op := 0; op < opsPer; op++ {
					lk.Write(th, func() {
						th.Store(ctr, th.Load(ctr)+1)
					})
					var v uint64
					lk.Read(th, func() {
						v = th.Load(ctr)
					})
					reads[c.ID] = v
				}
			})

			if got := m.Peek(ctr); got != threads*opsPer {
				t.Errorf("counter = %d after %d write sections (lost updates)", got, threads*opsPer)
			}
			for id, v := range reads {
				if v == 0 || v > threads*opsPer {
					t.Errorf("thread %d final read %d out of range [1,%d]", id, v, threads*opsPer)
				}
			}
		})
	}
}

// TestFactoryUnknownNamePanics pins the documented behaviour for
// unresolvable scheme names: a panic naming the scheme, not a nil return.
func TestFactoryUnknownNamePanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SchemeFactory(\"no-such-scheme\") did not panic")
		}
	}()
	harness.SchemeFactory("no-such-scheme")
}

// TestFactoriesAreIndependent checks that two locks built by the same
// factory on different systems do not share state.
func TestFactoriesAreIndependent(t *testing.T) {
	f := harness.SchemeFactory("RW-LE_OPT")
	mk := func() (rwlock.Lock, *machine.Machine, *htm.System, machine.Addr) {
		m := machine.New(machine.Config{CPUs: 1, MemWords: 1 << 12, Seed: 3})
		sys := htm.NewSystem(m, htm.Config{})
		return f(sys), m, sys, m.AllocRawAligned(1)
	}
	lkA, mA, sysA, ctrA := mk()
	lkB, mB, sysB, ctrB := mk()

	mA.Run(1, func(c *machine.CPU) {
		th := sysA.Thread(c.ID)
		lkA.Write(th, func() { th.Store(ctrA, 41) })
	})
	mB.Run(1, func(c *machine.CPU) {
		th := sysB.Thread(c.ID)
		lkB.Write(th, func() { th.Store(ctrB, 1) })
	})
	if a, b := mA.Peek(ctrA), mB.Peek(ctrB); a != 41 || b != 1 {
		t.Fatalf("locks shared state across systems: a=%d b=%d", a, b)
	}
}
