package locks

import (
	"testing"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
	"hrwle/internal/stats"
)

func newSys(cpus int, seed uint64) *htm.System {
	m := machine.New(machine.Config{CPUs: cpus, MemWords: 1 << 18, Seed: seed})
	return htm.NewSystem(m, htm.Config{})
}

// consistency runs the shared torn-snapshot / lost-update stress against a
// baseline scheme.
func consistency(t *testing.T, mk rwlock.Factory, threads, iters, writePct int, seed uint64) {
	t.Helper()
	const k = 5
	sys := newSys(threads, seed)
	lock := mk(sys)
	words := make([]machine.Addr, k)
	for i := range words {
		words[i] = sys.M.AllocRawAligned(1)
	}
	torn, writes := 0, 0
	sys.M.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < iters; i++ {
			if c.Intn(100) < writePct {
				lock.Write(th, func() {
					v := th.Load(words[0]) + 1
					for _, w := range words {
						th.Store(w, v)
					}
				})
				writes++
			} else {
				lock.Read(th, func() {
					v0 := th.Load(words[0])
					for _, w := range words[1:] {
						if th.Load(w) != v0 {
							torn++
						}
					}
				})
			}
			c.Tick(int64(c.Intn(150)))
		}
	})
	if torn > 0 {
		t.Errorf("%s: %d torn snapshots", lock.Name(), torn)
	}
	if got := sys.M.Peek(words[0]); got != uint64(writes) {
		t.Errorf("%s: final = %d, want %d", lock.Name(), got, writes)
	}
}

func TestSGLConsistency(t *testing.T) {
	consistency(t, func(s *htm.System) rwlock.Lock { return NewSGL(s) }, 8, 100, 30, 1)
}

func TestRWLConsistency(t *testing.T) {
	consistency(t, func(s *htm.System) rwlock.Lock { return NewRWL(s) }, 8, 100, 30, 2)
}

func TestBRLockConsistency(t *testing.T) {
	consistency(t, func(s *htm.System) rwlock.Lock { return NewBRLock(s) }, 8, 100, 30, 3)
}

func TestHLEConsistency(t *testing.T) {
	for _, wp := range []int{10, 50, 90} {
		consistency(t, func(s *htm.System) rwlock.Lock { return NewHLE(s) }, 8, 100, wp, uint64(wp))
	}
}

func TestBRLockReadersRunInParallel(t *testing.T) {
	// N readers with long critical sections under BRLock must overlap
	// (each takes only its private mutex); under SGL they serialize.
	elapsed := func(mk rwlock.Factory) int64 {
		sys := newSys(8, 4)
		lock := mk(sys)
		return sys.M.Run(8, func(c *machine.CPU) {
			th := sys.Thread(c.ID)
			lock.Read(th, func() { c.Tick(10_000) })
		})
	}
	br := elapsed(func(s *htm.System) rwlock.Lock { return NewBRLock(s) })
	sgl := elapsed(func(s *htm.System) rwlock.Lock { return NewSGL(s) })
	if br > 2*10_000 {
		t.Errorf("BRLock readers serialized: %d cycles", br)
	}
	if sgl < 8*10_000 {
		t.Errorf("SGL readers overlapped: %d cycles", sgl)
	}
}

func TestBRLockWriteCostScalesWithCPUs(t *testing.T) {
	// A BRLock write must visit every private mutex.
	cost := func(cpus int) int64 {
		sys := newSys(cpus, 5)
		lock := NewBRLock(sys)
		return sys.M.Run(1, func(c *machine.CPU) {
			lock.Write(sys.Thread(0), func() {})
		})
	}
	if c64, c4 := cost(64), cost(4); c64 < 4*c4 {
		t.Errorf("write cost: 64 CPUs %d vs 4 CPUs %d — not scaling with N", c64, c4)
	}
}

func TestRWLWriterPreferenceNoStarvation(t *testing.T) {
	// With readers streaming, a writer must still get in (writersWaiting
	// blocks new readers).
	sys := newSys(4, 6)
	lock := NewRWL(sys)
	a := sys.M.AllocRawAligned(1)
	var writerDone int64
	sys.M.Run(4, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		if c.ID == 0 {
			c.Tick(5_000)
			lock.Write(th, func() { th.Store(a, 1) })
			writerDone = c.Now()
		} else {
			for i := 0; i < 200; i++ {
				lock.Read(th, func() { th.Load(a); c.Tick(500) })
			}
		}
	})
	if sys.M.Peek(a) != 1 {
		t.Fatal("write lost")
	}
	if writerDone == 0 {
		t.Fatal("writer never ran")
	}
}

func TestHLECommitsViaHTMWhenSmall(t *testing.T) {
	sys := newSys(4, 7)
	lock := NewHLE(sys)
	a := sys.M.AllocRawAligned(1)
	sys.M.Run(4, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < 30; i++ {
			lock.Read(th, func() { th.Load(a) })
			c.Tick(int64(c.Intn(300)))
		}
	})
	b := stats.Merge(sys.Stats(4), 0)
	if b.Commits[stats.CommitHTM] == 0 {
		t.Error("small read sections never elided")
	}
	if got := b.CommitPct(stats.CommitHTM); got < 90 {
		t.Errorf("HTM commit share = %.1f%%, want > 90%%", got)
	}
}

func TestHLEFallsBackOnCapacity(t *testing.T) {
	m := machine.New(machine.Config{CPUs: 2, MemWords: 1 << 18, Seed: 8})
	sys := htm.NewSystem(m, htm.Config{ReadCapLines: 8, WriteCapLines: 8})
	lock := NewHLE(sys)
	arr := sys.M.AllocRawAligned(32 * 16)
	sys.M.Run(2, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < 5; i++ {
			lock.Read(th, func() {
				for j := 0; j < 32; j++ { // 32 lines > 8 budget
					th.Load(arr + machine.Addr(j*16))
				}
			})
		}
	})
	b := stats.Merge(sys.Stats(2), 0)
	if b.Commits[stats.CommitSGL] != 10 {
		t.Errorf("SGL commits = %d, want 10 (all sections over capacity)", b.Commits[stats.CommitSGL])
	}
	if b.Aborts[stats.AbortCapacity] == 0 {
		t.Error("no capacity aborts recorded")
	}
}

func TestHLEFallbackAbortsConcurrentTxs(t *testing.T) {
	// When one section falls back to the lock, concurrent speculating
	// sections must abort (they subscribed the lock word).
	m := machine.New(machine.Config{CPUs: 4, MemWords: 1 << 18, Seed: 9})
	sys := htm.NewSystem(m, htm.Config{ReadCapLines: 8, WriteCapLines: 8})
	lock := NewHLE(sys)
	big := sys.M.AllocRawAligned(32 * 16)
	small := sys.M.AllocRawAligned(1)
	sys.M.Run(4, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < 10; i++ {
			if c.ID == 0 {
				lock.Write(th, func() { // over-capacity: forces fallback
					for j := 0; j < 32; j++ {
						th.Store(big+machine.Addr(j*16), uint64(i))
					}
				})
			} else {
				lock.Read(th, func() { th.Load(small); c.Tick(2_000) })
			}
		}
	})
	b := stats.Merge(sys.Stats(4), 0)
	if b.Aborts[stats.AbortConflictNonTx]+b.Aborts[stats.AbortLockBusy] == 0 {
		t.Errorf("expected lock-driven aborts of readers, got %v", b.Aborts)
	}
}

func TestHLERetryBudgetRespected(t *testing.T) {
	// A section that always conflicts transiently must attempt exactly
	// maxRetries transactions before the fallback.
	m := machine.New(machine.Config{CPUs: 1, MemWords: 1 << 18, Seed: 10, Paging: machine.PagingConfig{Enabled: true, PageWords: 64, ResidentLimit: 2, TLBEntries: 2}})
	sys := htm.NewSystem(m, htm.Config{})
	lock := NewHLE(sys)
	lock.maxRetries = 3
	sys.M.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		lock.Read(th, func() {
			// Touch enough distinct pages that every attempt faults
			// (transient non-tx abort), exhausting the retry budget.
			for p := 0; p < 40; p++ {
				th.Load(machine.Addr(p * 64))
			}
		})
	})
	st := &sys.Thread(0).St
	if st.TxStarts != 3 {
		t.Errorf("TxStarts = %d, want 3", st.TxStarts)
	}
	if st.Commits[stats.CommitSGL] != 1 {
		t.Errorf("commits = %v, want 1 SGL", st.Commits)
	}
}
