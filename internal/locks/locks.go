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

const (
	free   uint64 = 0
	locked uint64 = 1
)

// backoff is a bounded randomized exponential backoff, the standard remedy
// for hot-lock crowding (glibc's futex path behaves similarly by parking
// waiters): without it, a cohort of spinners can exclude one contender —
// e.g. a writer trying to re-take the internal mutex to clear its active
// flag — more or less indefinitely.
type backoff struct{ shift uint }

func (b *backoff) wait(t *htm.Thread) {
	t.C.SpinFor(1 + t.C.Intn(1<<b.shift))
	if b.shift < 8 {
		b.shift++
	}
}

// spinAcquire acquires a test-and-test-and-set spin lock at word a with
// randomized exponential backoff. The loop runs as an engine-stepped wait,
// so a contended acquisition costs no coroutine switches per poll.
func spinAcquire(t *htm.Thread, a machine.Addr) {
	t.AwaitAcquire(a, 8)
}

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
func (l *SGL) Read(t *htm.Thread, cs func()) {
	t.St.ReadCS++
	l.enter(t, false, cs)
}

// Write implements rwlock.Lock.
func (l *SGL) Write(t *htm.Thread, cs func()) {
	t.St.WriteCS++
	l.enter(t, true, cs)
}

func (l *SGL) enter(t *htm.Thread, write bool, cs func()) {
	t.C.Emit(machine.EvCSBegin, 0, machine.PackCS(write, 0, 0))
	spinAcquire(t, l.lock)
	cs()
	spinRelease(t, l.lock)
	t.St.Commits[stats.CommitSGL]++
	t.C.Emit(machine.EvCSEnd, 0, machine.PackCS(write, uint64(stats.CommitSGL), 0))
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
	t.St.ReadCS++
	t.C.Emit(machine.EvCSBegin, 0, machine.PackCS(false, 0, 0))
	var b backoff
	for {
		spinAcquire(t, l.mutex)
		if t.Load(l.writerActive) == 0 && t.Load(l.writersWaiting) == 0 {
			t.Store(l.readers, t.Load(l.readers)+1)
			spinRelease(t, l.mutex)
			break
		}
		spinRelease(t, l.mutex)
		b.wait(t)
	}
	cs()
	spinAcquire(t, l.mutex)
	t.Store(l.readers, t.Load(l.readers)-1)
	spinRelease(t, l.mutex)
	t.St.Commits[stats.CommitUninstrumented]++
	t.C.Emit(machine.EvCSEnd, 0, machine.PackCS(false, uint64(stats.CommitUninstrumented), 0))
}

// Write implements rwlock.Lock.
func (l *RWL) Write(t *htm.Thread, cs func()) {
	t.St.WriteCS++
	t.C.Emit(machine.EvCSBegin, 0, machine.PackCS(true, 0, 0))
	spinAcquire(t, l.mutex)
	t.Store(l.writersWaiting, t.Load(l.writersWaiting)+1)
	var b backoff
	for t.Load(l.readers) != 0 || t.Load(l.writerActive) != 0 {
		spinRelease(t, l.mutex)
		b.wait(t)
		spinAcquire(t, l.mutex)
	}
	t.Store(l.writersWaiting, t.Load(l.writersWaiting)-1)
	t.Store(l.writerActive, 1)
	spinRelease(t, l.mutex)
	cs()
	spinAcquire(t, l.mutex)
	t.Store(l.writerActive, 0)
	spinRelease(t, l.mutex)
	t.St.Commits[stats.CommitSGL]++
	t.C.Emit(machine.EvCSEnd, 0, machine.PackCS(true, uint64(stats.CommitSGL), 0))
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
	t.St.ReadCS++
	t.C.Emit(machine.EvCSBegin, 0, machine.PackCS(false, 0, 0))
	mine := l.mutexAddr(t.C.ID)
	spinAcquire(t, mine)
	cs()
	spinRelease(t, mine)
	t.St.Commits[stats.CommitUninstrumented]++
	t.C.Emit(machine.EvCSEnd, 0, machine.PackCS(false, uint64(stats.CommitUninstrumented), 0))
}

// Write implements rwlock.Lock.
func (l *BRLock) Write(t *htm.Thread, cs func()) {
	t.St.WriteCS++
	t.C.Emit(machine.EvCSBegin, 0, machine.PackCS(true, 0, 0))
	for i := 0; i < l.n; i++ {
		spinAcquire(t, l.mutexAddr(i))
	}
	cs()
	for i := l.n - 1; i >= 0; i-- {
		spinRelease(t, l.mutexAddr(i))
	}
	t.St.Commits[stats.CommitSGL]++
	t.C.Emit(machine.EvCSEnd, 0, machine.PackCS(true, uint64(stats.CommitSGL), 0))
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
func (l *HLE) Read(t *htm.Thread, cs func()) {
	t.St.ReadCS++
	l.elide(t, false, cs)
}

// Write implements rwlock.Lock.
func (l *HLE) Write(t *htm.Thread, cs func()) {
	t.St.WriteCS++
	l.elide(t, true, cs)
}

func (l *HLE) elide(t *htm.Thread, write bool, cs func()) {
	t.C.Emit(machine.EvCSBegin, 0, machine.PackCS(write, 0, 0))
	var b backoff
	var failed uint64
	for attempt := 0; attempt < l.maxRetries; attempt++ {
		// Wait for the lock to be free before speculating; starting while
		// it is held guarantees an immediate self-abort. The backoff shift
		// persists across retry attempts, as it did when b was spun inline.
		b.shift = t.AwaitWordBackoff(l.lock, ^uint64(0), free, true, b.shift, 8)
		st := t.Try(false, func() {
			if t.Load(l.lock) != free { // subscribe the elided lock
				t.Abort(stats.AbortLockBusy)
			}
			cs()
		})
		if st.OK {
			t.St.Commits[stats.CommitHTM]++
			t.C.Emit(machine.EvCSEnd, 0, machine.PackCS(write, uint64(stats.CommitHTM), failed))
			return
		}
		failed++
		if st.Persistent {
			break
		}
	}
	// Non-speculative fallback: acquire the original lock, killing all
	// subscribed transactions.
	spinAcquire(t, l.lock)
	cs()
	spinRelease(t, l.lock)
	t.St.Commits[stats.CommitSGL]++
	t.C.Emit(machine.EvCSEnd, 0, machine.PackCS(write, uint64(stats.CommitSGL), failed))
}
