package rwlock_test

import (
	"strings"
	"testing"

	"hrwle/internal/harness"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/rwlock"
	"hrwle/internal/stats"
)

// TestFactoryContract instantiates every scheme-table entry on a fresh system and
// checks the rwlock.Lock contract: a non-empty stable Name matching the
// scheme, Read/Write sections that run their bodies with mutual
// exclusion effects visible afterwards, and one span per counted section:
// for each (side, path) the Collector's spans equal the commits those
// sections added to the stats counters, and cs-begin equals cs-end. The
// same run checks the quiescence account: quiesce-start equals
// quiesce-end, the window histogram's cycles equal the merged QuiesceWait,
// and every scheme whose writer waits for readers opens windows.
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
			col := obs.NewCollector()
			m.SetTracer(col)
			var want sectionTally
			m.Run(threads, func(c *machine.CPU) {
				th := sys.Thread(c.ID)
				for op := 0; op < opsPer; op++ {
					want.Run(th, true, func() {
						lk.Write(th, func() {
							th.Store(ctr, th.Load(ctr)+1)
						})
					})
					var v uint64
					want.Run(th, false, func() {
						lk.Read(th, func() {
							v = th.Load(ctr)
						})
					})
					reads[c.ID] = v
				}
			})
			want.Check(t, col, sys.Stats(threads))
			checkQuiescence(t, col, sys.Stats(threads), waitsForReaders(name))

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

// sectionTally counts, per (side, commit path), the commits a run's
// critical sections add to their threads' stats counters.
type sectionTally [2][stats.NumCommitPaths]int64

// Run runs section, one critical section on side write, and tallies the
// commits it adds to th's counters.
func (s *sectionTally) Run(th *htm.Thread, write bool, section func()) {
	before := th.St.Commits
	section()
	side := 0
	if write {
		side = 1
	}
	for p := range before {
		s[side][p] += th.St.Commits[p] - before[p]
	}
}

// Check requires col to hold exactly one span per tallied commit, for each
// (side, path), the side counters of sts to count them all, and every
// cs-begin to have its cs-end.
func (s *sectionTally) Check(t *testing.T, col *obs.Collector, sts []*stats.Thread) {
	t.Helper()
	var spans sectionTally
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
	if spans != *s {
		t.Errorf("spans per (side, path) %v, want the counted commits %v", spans, *s)
	}
	b := stats.Merge(sts, 0)
	var sides [2]int64
	for side := range s {
		for _, n := range s[side] {
			sides[side] += n
		}
	}
	if b.ReadCS != sides[0] || b.WriteCS != sides[1] {
		t.Errorf("ReadCS/WriteCS = %d/%d, want %d/%d", b.ReadCS, b.WriteCS, sides[0], sides[1])
	}
	begin, end := col.Counts[machine.EvCSBegin], col.Counts[machine.EvCSEnd]
	if begin != end || begin != sides[0]+sides[1] {
		t.Errorf("cs-begin %d, cs-end %d, want %d each", begin, end, sides[0]+sides[1])
	}
}

// waitsForReaders reports whether the scheme's writer drains readers (the
// RW-LE family and PRWL's consensus), so it must open quiescence windows.
func waitsForReaders(name string) bool {
	return strings.HasPrefix(name, "RW-LE") || name == "PRWL"
}

// checkQuiescence requires every quiescence window to be closed, the
// window histogram to sum to the merged QuiesceWait, and, with wantWindow,
// at least one window.
func checkQuiescence(t *testing.T, col *obs.Collector, sts []*stats.Thread, wantWindow bool) {
	t.Helper()
	start, end := col.Counts[machine.EvQuiesceStart], col.Counts[machine.EvQuiesceEnd]
	if start != end {
		t.Errorf("quiesce-start %d, quiesce-end %d", start, end)
	}
	h, b := col.QuiesceHist(), stats.Merge(sts, 0)
	if h.SumCycles != b.QuiesceWait {
		t.Errorf("quiesce windows sum to %d cycles, QuiesceWait is %d", h.SumCycles, b.QuiesceWait)
	}
	if wantWindow && h.Count == 0 {
		t.Errorf("no quiescence window, though the writer waits for readers")
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
