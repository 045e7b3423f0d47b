// Package locks implements the baseline synchronization schemes the paper
// compares RW-LE against (§4): a plain single global lock (SGL), a
// pthread-style read-write lock (RWL), the big-reader lock (BRLock), and
// Rajwar-Goodman hardware lock elision (HLE) over the same HTM substrate.
//
// All lock metadata lives in simulated memory so acquisition and hand-off
// have honest coherence costs, and — crucially for HLE — so that fallback
// acquisitions conflict with transactions that subscribed the lock word.
package locks

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

const free uint64 = 0

// Every spin lock here is a test-and-test-and-set word, taken with
// htm.Thread.AwaitAcquire under randomized backoff capped at 2^8 spin
// iterations (the standard remedy for hot-lock crowding; glibc's futex
// path behaves similarly by parking waiters) and released by spinRelease.
func spinRelease(t *htm.Thread, a machine.Addr) { t.Store(a, free) }

// SGL is a single global mutex: readers and writers alike serialize.
type SGL struct{ lock machine.Addr }

// NewSGL creates a single-global-lock scheme.
func NewSGL(sys *htm.System) *SGL {
	return &SGL{lock: sys.M.AllocRawAligned(1)}
}

// Name implements rwlock.Lock.
func (l *SGL) Name() string { return "SGL" }

// Read implements rwlock.Lock.
func (l *SGL) Read(t *htm.Thread, cs func()) { l.enter(t, false, cs) }

// Write implements rwlock.Lock.
func (l *SGL) Write(t *htm.Thread, cs func()) { l.enter(t, true, cs) }

func (l *SGL) enter(t *htm.Thread, write bool, cs func()) {
	t.BeginCS(write)
	t.AwaitAcquire(l.lock, htm.Backoff(8))
	cs()
	spinRelease(t, l.lock)
	t.EndCS(write, stats.CommitSGL, 0)
}

// RWL models the pthread read-write lock: an internal mutex protecting
// reader/writer counters on a shared cache line, with writer preference to
// avoid writer starvation. Every entry and exit takes the internal mutex,
// so the hot line ping-pongs between all participants — the behaviour that
// limits RWL's read scalability in the paper.
type RWL struct {
	// Field layout within one cache line of simulated memory.
	mutex          machine.Addr // internal mutex
	readers        machine.Addr // readers inside the critical section
	writerActive   machine.Addr // 1 while a writer is inside
	writersWaiting machine.Addr // writers queued
}

// NewRWL creates a pthread-style read-write lock.
func NewRWL(sys *htm.System) *RWL {
	base := sys.M.AllocRawAligned(4)
	return &RWL{mutex: base, readers: base + 1, writerActive: base + 2, writersWaiting: base + 3}
}

// Name implements rwlock.Lock.
func (l *RWL) Name() string { return "RWL" }

// Read implements rwlock.Lock.
func (l *RWL) Read(t *htm.Thread, cs func()) {
	t.BeginCS(false)
	b := htm.Backoff(8)
	for {
		t.AwaitAcquire(l.mutex, htm.Backoff(8))
		if t.Load(l.writerActive) == 0 && t.Load(l.writersWaiting) == 0 {
			t.Store(l.readers, t.Load(l.readers)+1)
			spinRelease(t, l.mutex)
			break
		}
		spinRelease(t, l.mutex)
		b.Wait(t.C)
	}
	cs()
	t.AwaitAcquire(l.mutex, htm.Backoff(8))
	t.Store(l.readers, t.Load(l.readers)-1)
	spinRelease(t, l.mutex)
	t.EndCS(false, stats.CommitUninstrumented, 0)
}

// Write implements rwlock.Lock.
func (l *RWL) Write(t *htm.Thread, cs func()) {
	t.BeginCS(true)
	t.AwaitAcquire(l.mutex, htm.Backoff(8))
	t.Store(l.writersWaiting, t.Load(l.writersWaiting)+1)
	b := htm.Backoff(8)
	for t.Load(l.readers) != 0 || t.Load(l.writerActive) != 0 {
		spinRelease(t, l.mutex)
		b.Wait(t.C)
		t.AwaitAcquire(l.mutex, htm.Backoff(8))
	}
	t.Store(l.writersWaiting, t.Load(l.writersWaiting)-1)
	t.Store(l.writerActive, 1)
	spinRelease(t, l.mutex)
	cs()
	t.AwaitAcquire(l.mutex, htm.Backoff(8))
	t.Store(l.writerActive, 0)
	spinRelease(t, l.mutex)
	t.EndCS(true, stats.CommitSGL, 0)
}

// BRLock is the big-reader lock (once in the Linux kernel): each thread
// owns a private mutex on its own cache line. Readers take only their own
// mutex (cheap, no sharing); writers must take every thread's mutex,
// trading write throughput for read throughput.
type BRLock struct {
	mutexes machine.Addr
	n       int
	lineW   machine.Addr
}

// NewBRLock creates a big-reader lock with one private mutex per CPU.
func NewBRLock(sys *htm.System) *BRLock {
	m := sys.M
	n := m.Cfg.CPUs
	return &BRLock{
		mutexes: m.AllocRawAligned(int64(n) * m.Cfg.LineWords),
		n:       n,
		lineW:   machine.Addr(m.Cfg.LineWords),
	}
}

// Name implements rwlock.Lock.
func (l *BRLock) Name() string { return "BRLock" }

func (l *BRLock) mutexAddr(i int) machine.Addr { return l.mutexes + machine.Addr(i)*l.lineW }

// Read implements rwlock.Lock.
func (l *BRLock) Read(t *htm.Thread, cs func()) {
	t.BeginCS(false)
	mine := l.mutexAddr(t.C.ID)
	t.AwaitAcquire(mine, htm.Backoff(8))
	cs()
	spinRelease(t, mine)
	t.EndCS(false, stats.CommitUninstrumented, 0)
}

// Write implements rwlock.Lock.
func (l *BRLock) Write(t *htm.Thread, cs func()) {
	t.BeginCS(true)
	for i := 0; i < l.n; i++ {
		t.AwaitAcquire(l.mutexAddr(i), htm.Backoff(8))
	}
	cs()
	for i := l.n - 1; i >= 0; i-- {
		spinRelease(t, l.mutexAddr(i))
	}
	t.EndCS(true, stats.CommitSGL, 0)
}

// HLE is Rajwar-Goodman hardware lock elision: read and write critical
// sections alike run as regular hardware transactions that subscribe the
// (elided) global lock; after MaxRetries failed attempts — immediately on
// a persistent failure — the section falls back to acquiring the lock,
// which aborts all concurrent transactions. HLE is oblivious to read-write
// lock semantics: this is exactly the baseline the paper measures.
type HLE struct {
	lock       machine.Addr
	maxRetries int
}

// NewHLE creates an HLE scheme with the paper's retry budget of 5.
func NewHLE(sys *htm.System) *HLE {
	return &HLE{lock: sys.M.AllocRawAligned(1), maxRetries: 5}
}

// Name implements rwlock.Lock.
func (l *HLE) Name() string { return "HLE" }

// Read implements rwlock.Lock.
func (l *HLE) Read(t *htm.Thread, cs func()) { l.elide(t, false, cs) }

// Write implements rwlock.Lock.
func (l *HLE) Write(t *htm.Thread, cs func()) { l.elide(t, true, cs) }

func (l *HLE) elide(t *htm.Thread, write bool, cs func()) {
	t.BeginCS(write)
	b := htm.Backoff(8)
	var failed uint64
	for attempt := 0; attempt < l.maxRetries; attempt++ {
		// Wait for the lock to be free before speculating; starting while
		// it is held guarantees an immediate self-abort. The backoff
		// persists across retry attempts.
		b = t.AwaitWord(l.lock, ^uint64(0), free, true, b)
		st := t.Try(false, func() {
			if t.Load(l.lock) != free { // subscribe the elided lock
				t.Abort(stats.AbortLockBusy)
			}
			cs()
		})
		if st.OK {
			t.EndCS(write, stats.CommitHTM, failed)
			return
		}
		failed++
		if st.Persistent {
			break
		}
	}
	// Non-speculative fallback: acquire the original lock, killing all
	// subscribed transactions.
	t.AwaitAcquire(l.lock, htm.Backoff(8))
	cs()
	spinRelease(t, l.lock)
	t.EndCS(write, stats.CommitSGL, failed)
}
