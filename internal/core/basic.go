package core

import (
	"fmt"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// basicWatchdogLimit is how many consecutive *persistent* aborts (capacity
// or explicit-persistent — retrying the same path is futile by definition)
// one write section tolerates before the blind-retry loop is declared
// livelocked. Conflict aborts reset the count: they are the aborts
// Algorithm 1's blind retry legitimately rides out. The limit only has to
// be comfortably above any plausible run of spurious persistent
// classifications; a genuinely over-capacity section hits it immediately.
const basicWatchdogLimit = 64

// Basic is the paper's Algorithm 1: the didactic HTM-only variant of RW-LE
// with writers serialized by a spin lock and blind retry of failed
// transactions. It has no ROT or non-speculative fallback, so a write
// critical section that persistently exceeds capacity can never complete —
// it exists for exposition and testing; use RWLE (Algorithm 2) for real
// workloads.
type Basic struct {
	wlock  machine.Addr
	clocks htm.Clocks
}

// NewBasic creates an Algorithm 1 lock.
func NewBasic(sys *htm.System) *Basic {
	return &Basic{wlock: sys.M.AllocRawAligned(1), clocks: htm.NewClocks(sys.M)}
}

// Name implements rwlock.Lock.
func (l *Basic) Name() string { return "RW-LE_basic" }

// Read implements rwlock.Lock (Algorithm 1, RWLE_READ_LOCK/UNLOCK).
func (l *Basic) Read(t *htm.Thread, cs func()) {
	t.BeginCS(false)
	l.clocks.Enter(t)
	cs()
	l.clocks.Exit(t)
	t.EndCS(false, stats.CommitUninstrumented, 0)
}

// Write implements rwlock.Lock (Algorithm 1, RWLE_WRITE_LOCK/UNLOCK):
// serialize writers on a spin lock, run the section in a transaction, then
// suspend, quiesce, resume and commit. Failed transactions are blindly
// retried.
func (l *Basic) Write(t *htm.Thread, cs func()) {
	t.BeginCS(true)
	var retries uint64
	persistentRun := 0
	for {
		t.AwaitAcquire(l.wlock, htm.Backoff(8))
		released := false
		st := t.Try(false, func() {
			cs()
			t.Suspend()
			// We can already release the lock: another writer can at
			// worst trigger an abort of the suspended transaction.
			t.Store(l.wlock, 0)
			released = true
			l.clocks.Drain(t) // the quiescence loop
			t.Resume()
		})
		if st.OK {
			t.EndCS(true, stats.CommitHTM, retries)
			return
		}
		retries++
		// If the abort hit before the suspended (non-transactional)
		// release, the lock is still ours and must be freed; if it hit at
		// resume, the lock was already released and may belong to another
		// writer by now.
		if !released {
			t.Store(l.wlock, 0)
		}
		// Retry-storm watchdog: Algorithm 1 has no fallback, so a section
		// whose aborts are persistent can never complete — fail fast with a
		// diagnostic instead of spinning the simulation to its deadline.
		if st.Persistent {
			persistentRun++
			if persistentRun >= basicWatchdogLimit {
				panic(fmt.Sprintf(
					"core: RW-LE_basic write section on cpu %d livelocked: %d consecutive persistent aborts (last cause %v, %d retries total) — Algorithm 1 has no capacity fallback; run sections that overflow the HTM read/write budget under RW-LE (Algorithm 2) instead",
					t.C.ID, persistentRun, st.Cause, retries))
			}
		} else {
			persistentRun = 0
		}
	}
}
