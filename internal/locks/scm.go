package locks

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// SCMHLE is hardware lock elision with software-assisted conflict
// management in the style of Afek, Levy and Morrison (PODC'14), discussed
// in the paper's related work: when a transaction aborts on a *conflict*,
// instead of blindly retrying (and likely colliding again), it acquires an
// auxiliary serialization lock and retries in hardware while holding it.
// Conflicting transactions thereby serialize among themselves but still
// commit in hardware and still run concurrently with non-conflicting
// transactions; only persistent failures (capacity) take the real lock.
type SCMHLE struct {
	lock       machine.Addr // the elided application lock
	aux        machine.Addr // auxiliary serialization lock
	maxRetries int
}

// NewSCMHLE creates an SCM-managed HLE scheme.
func NewSCMHLE(sys *htm.System) *SCMHLE {
	return &SCMHLE{
		lock:       sys.M.AllocRawAligned(1),
		aux:        sys.M.AllocRawAligned(1),
		maxRetries: 5,
	}
}

// Name implements rwlock.Lock.
func (l *SCMHLE) Name() string { return "HLE-SCM" }

// Read implements rwlock.Lock.
func (l *SCMHLE) Read(t *htm.Thread, cs func()) { l.elide(t, false, cs) }

// Write implements rwlock.Lock.
func (l *SCMHLE) Write(t *htm.Thread, cs func()) { l.elide(t, true, cs) }

func (l *SCMHLE) elide(t *htm.Thread, write bool, cs func()) {
	t.BeginCS(write)
	var failed uint64
	b := htm.Backoff(8)
	// attempt waits for the elided lock to be free, then runs cs as one
	// hardware transaction; the backoff persists across attempts.
	attempt := func() htm.Status {
		b = t.AwaitWord(l.lock, ^uint64(0), free, true, b)
		return t.Try(false, func() {
			if t.Load(l.lock) != free {
				t.Abort(stats.AbortLockBusy)
			}
			cs()
		})
	}

	// Fast path: uninstrumented attempts.
	conflicted := false
	for i := 0; i < l.maxRetries; i++ {
		st := attempt()
		if st.OK {
			t.EndCS(write, stats.CommitHTM, failed)
			return
		}
		failed++
		if st.Persistent {
			conflicted = false
			goto fallback
		}
		if st.Cause == stats.AbortConflictTx || st.Cause == stats.AbortConflictNonTx {
			conflicted = true
			break
		}
	}

	// Conflict management: serialize with other conflicters on the
	// auxiliary lock, but stay in hardware (the aux lock is NOT the
	// elided lock; unrelated transactions keep committing concurrently).
	if conflicted {
		t.AwaitAcquire(l.aux, htm.Backoff(8))
		for i := 0; i < l.maxRetries; i++ {
			st := attempt()
			if st.OK {
				spinRelease(t, l.aux)
				t.EndCS(write, stats.CommitHTM, failed)
				return
			}
			failed++
			if st.Persistent {
				break
			}
		}
		spinRelease(t, l.aux)
	}

fallback:
	t.AwaitAcquire(l.lock, htm.Backoff(8))
	cs()
	spinRelease(t, l.lock)
	t.EndCS(write, stats.CommitSGL, failed)
}
