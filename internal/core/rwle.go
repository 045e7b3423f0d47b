// Package core implements RW-LE, the hardware read-write lock elision
// algorithm of Felber, Issa, Matveev and Romano (EuroSys'16), on top of the
// POWER8-style HTM model in internal/htm.
//
// The algorithm's essence (paper §3):
//
//   - Read-side critical sections execute with no speculation and no lock
//     acquisition at all. Each reader only increments a per-thread clock on
//     entry and exit (odd value = inside the critical section).
//   - Write-side critical sections execute speculatively — first as regular
//     hardware transactions (concurrent writers allowed, the global lock is
//     eagerly subscribed), then as rollback-only transactions (serialized
//     against other writers, but loads are untracked so read-capacity
//     aborts disappear), and finally non-speculatively under the global
//     lock.
//   - Before making its speculative stores visible, a writer waits for all
//     in-flight readers to leave their critical sections (an RCU-style
//     quiescence loop over the reader clocks). An HTM writer runs the loop
//     with the transaction *suspended*; a ROT writer runs it inline, since
//     ROTs do not track loads. Any reader that touches the writer's write
//     set meanwhile dooms the writer, so after quiescence it is safe to
//     commit: the hardware publishes all stores atomically.
//
// Both writer-path policies evaluated in the paper are provided
// (RW-LE_OPT = HTM then ROT, RW-LE_PES = ROT only), as are the fair
// variant of §3.3 and the split-lock optimization that lets ROT and HTM
// writers run concurrently.
package core

import (
	"fmt"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// Lock states stored in the low two bits of the global lock word. The
// remaining bits hold the version number used by the fair variant.
const (
	lockFree uint64 = 0
	lockNS   uint64 = 1
	lockROT  uint64 = 2

	stateMask uint64 = 3
	verShift         = 2
)

func state(v uint64) uint64   { return v & stateMask }
func version(v uint64) uint64 { return v >> verShift }

// Options selects an RW-LE variant.
type Options struct {
	// MaxHTM is the number of attempts on the regular-transaction path
	// before falling back (the paper uses 5; 0 disables the path, giving
	// the pessimistic variant).
	MaxHTM int
	// MaxROT is the number of attempts on the rollback-only path before
	// falling back to the global lock (the paper uses 5; 0 disables ROTs,
	// as in the fairness experiment).
	MaxROT int
	// Fair enables the §3.3 fair variant: the global lock carries a
	// version number, readers record the version they entered under, and
	// writers wait only for readers that entered before them — so readers
	// cannot be overtaken indefinitely by a stream of writers.
	Fair bool
	// SplitLocks enables the optimization that separates the NS lock from
	// the ROT lock, letting HTM writers subscribe the ROT lock lazily (at
	// commit) and therefore run concurrently with a ROT writer.
	SplitLocks bool
	// Adaptive replaces the fixed MAX-HTM budget with a self-tuning
	// controller (an extension in the spirit of the related work's
	// self-tuning HTM [9]): capacity-bound workloads converge to the
	// pessimistic ROT-first policy, conflict-free ones to long budgets.
	Adaptive bool
	// EarlyAbort makes a suspended HTM writer poll its own doom flag
	// (POWER8 tcheck) during the quiescence loop and stop draining
	// readers once the transaction cannot commit anyway — an extension
	// the paper leaves on the table.
	EarlyAbort bool
	// Name overrides the reported scheme name.
	Name string
}

// Opt returns the optimistic writer-path policy evaluated in the paper
// (5 HTM attempts, then 5 ROT attempts, then the global lock), with the
// unified lock word of Algorithm 2. The §3.3 split-lock optimization is
// available via Options.SplitLocks; the "split" ablation in this
// repository found the unified word *faster* under transient-abort storms
// (an HTM writer discovers a ROT's lock eagerly at begin, instead of
// wasting the whole section plus quiescence before the lazy subscription
// fails) — see EXPERIMENTS.md.
func Opt() Options { return Options{MaxHTM: 5, MaxROT: 5, Name: "RW-LE_OPT"} }

// Pes returns the pessimistic policy (writers serialized from the start:
// 5 ROT attempts, then the global lock).
func Pes() Options { return Options{MaxHTM: 0, MaxROT: 5, Name: "RW-LE_PES"} }

// RWLE is one elided read-write lock instance.
type RWLE struct {
	sys  *htm.System
	opts Options

	nthreads int
	wlock    machine.Addr // global lock word (state + version)
	rotLock  machine.Addr // separate ROT lock when SplitLocks
	clocks   htm.Clocks   // per-thread reader clocks
	local    machine.Addr // per-thread local lock copies (fair variant)
	lineW    machine.Addr

	// nesting[i] tracks thread i's critical-section depth so read (and
	// write) sections nest, per the paper's footnote 3. Host-side state,
	// mutated only by the owning (token-holding) thread.
	nesting []nestState
	// adapt, when Options.Adaptive is set, tunes the HTM budget.
	adapt *adaptiveController
	// skipROTQuiesce and lazySubscription are the system's checker
	// mutations (htm.Config.UnsafeSkipROTQuiesce, UnsafeLazySubscription),
	// copied at construction.
	skipROTQuiesce, lazySubscription bool

	// syncWaits[i] is thread i's reusable engine-stepped waiter for
	// quiescence scans — host-side state, owned by the running thread like
	// nesting.
	syncWaits []syncWait
}

// nestState tracks one thread's lock recursion.
type nestState struct {
	depth   int
	writing bool
}

// New creates an RW-LE lock on the given HTM system. The lock's metadata
// (global lock word, per-thread reader clocks) lives in simulated memory,
// so subscription, quiescence scans and reader polling have honest
// coherence costs and participate in conflict detection.
func New(sys *htm.System, opts Options) *RWLE {
	if opts.Fair && opts.SplitLocks {
		panic("core: Fair and SplitLocks are mutually exclusive in this implementation")
	}
	m := sys.M
	l := &RWLE{
		sys:      sys,
		opts:     opts,
		nthreads: m.Cfg.CPUs,
		lineW:    machine.Addr(m.Cfg.LineWords),

		skipROTQuiesce:   sys.Cfg.UnsafeSkipROTQuiesce,
		lazySubscription: sys.Cfg.UnsafeLazySubscription,
	}
	l.wlock = m.AllocRawAligned(1)
	if opts.SplitLocks {
		l.rotLock = m.AllocRawAligned(1)
	}
	l.clocks = htm.NewClocks(m)
	if opts.Fair {
		l.local = m.AllocRawAligned(int64(l.nthreads) * m.Cfg.LineWords)
	}
	l.nesting = make([]nestState, l.nthreads)
	if opts.Adaptive {
		l.adapt = newAdaptiveController()
	}
	l.syncWaits = make([]syncWait, l.nthreads)
	return l
}

// Name implements rwlock.Lock.
func (l *RWLE) Name() string {
	if l.opts.Name != "" {
		return l.opts.Name
	}
	return fmt.Sprintf("RW-LE(htm=%d,rot=%d,fair=%v)", l.opts.MaxHTM, l.opts.MaxROT, l.opts.Fair)
}

// AdaptiveState reports the self-tuning controller's current HTM budget
// and last-window win rate in tenths (see adaptiveController.WinRate10).
// ok is false when the lock runs a fixed budget (Options.Adaptive unset),
// in which case the other values are meaningless.
func (l *RWLE) AdaptiveState() (budget, winRate10 int, ok bool) {
	if l.adapt == nil {
		return 0, 0, false
	}
	return l.adapt.Budget(), l.adapt.WinRate10(), true
}

func (l *RWLE) localAddr(id int) machine.Addr { return l.local + machine.Addr(id)*l.lineW }

// Read executes cs as a read-side critical section: no lock acquisition,
// no speculation — only the per-thread clock increments (paper Algorithm 2,
// RWLE_READ_LOCK/RWLE_READ_UNLOCK, with the §3.3 fast-path optimization of
// checking the lock after the increment).
func (l *RWLE) Read(t *htm.Thread, cs func()) {
	// Nesting (paper footnote 3): a read section inside another read or
	// write section of the same thread runs directly — the enclosing
	// section's protection covers it. It is counted, but only outermost
	// sections are spans.
	ns := &l.nesting[t.C.ID]
	if ns.depth > 0 {
		t.St.ReadCS++
		ns.depth++
		cs()
		ns.depth--
		t.St.Commits[stats.CommitUninstrumented]++
		return
	}
	t.BeginCS(false)
	if l.opts.Fair {
		l.readLockFair(t)
	} else {
		l.readLock(t)
	}
	ns.depth = 1
	cs()
	ns.depth = 0
	// RWLE_READ_UNLOCK: leave the critical section (clock becomes even).
	l.clocks.Exit(t)
	t.EndCS(false, stats.CommitUninstrumented, 0)
}

func (l *RWLE) readLock(t *htm.Thread) {
	for {
		clk := l.clocks.Enter(t) // enter: odd, fenced so writers see the reader
		if state(t.Load(l.wlock)) != lockNS {
			return
		}
		// A non-speculative writer is (or just went) active: defer to it
		// and retry (paper lines 14-16).
		t.Store(l.clocks.Addr(t.C.ID), clk+2)
		t.AwaitWord(l.wlock, stateMask, lockNS, false, htm.Poll(32))
	}
}

// readLockFair is the §3.3 fair entry: the reader records the lock version
// it entered under and, if the lock is busy, waits only for the *current*
// owner — it cannot be overtaken by a stream of later writers.
func (l *RWLE) readLockFair(t *htm.Thread) {
	la := l.localAddr(t.C.ID)
	l.clocks.Enter(t) // enter: odd
	v := t.Load(l.wlock)
	t.Store(la, v) // publish the version we entered under
	t.C.Fence()
	if state(v) != lockNS {
		return
	}
	// Wait for the current owner to release or hand over; readers that
	// entered before a writer's version bump are waited for by that
	// writer, so entering afterwards is safe. The lock word holds nothing
	// but version and state, so "same state and same version" is exactly
	// "word still equals v".
	t.AwaitWord(l.wlock, ^uint64(0), v, false, htm.Poll(8))
}

// Write executes cs as a write-side critical section, attempting the HTM,
// ROT and NS paths in turn under the configured trial budgets (paper
// Algorithm 2, RWLE_WRITE_LOCK/RWLE_WRITE_UNLOCK and PATH).
func (l *RWLE) Write(t *htm.Thread, cs func()) {
	ns := &l.nesting[t.C.ID]
	if ns.depth > 0 {
		if !ns.writing {
			panic("core: write section nested inside a read section (lock upgrade is a deadlock)")
		}
		t.St.WriteCS++
		ns.depth++
		cs()
		ns.depth--
		return
	}
	maxHTM := l.opts.MaxHTM
	if l.adapt != nil {
		maxHTM = l.adapt.Budget()
	}
	sel := newPathSelector(maxHTM, l.opts.MaxROT)
	htmTried := false
	enter := func() { ns.depth, ns.writing = 1, true }
	leave := func() { ns.depth, ns.writing = 0, false }
	t.BeginCS(true)
	var retries uint64
	for {
		switch sel.current() {
		case PathHTM:
			htmTried = true
			enter()
			st := l.writeHTM(t, cs)
			leave()
			if st.OK {
				l.recordAdapt(htmTried, true)
				t.EndCS(true, stats.CommitHTM, retries)
				return
			}
			retries++
			l.pathFail(t, &sel, st.Persistent)
		case PathROT:
			enter()
			st := l.writeROT(t, cs)
			leave()
			if st.OK {
				l.recordAdapt(htmTried, false)
				t.EndCS(true, stats.CommitROT, retries)
				return
			}
			retries++
			l.pathFail(t, &sel, st.Persistent)
		case PathNS:
			enter()
			l.writeNS(t, cs)
			leave()
			l.recordAdapt(htmTried, false)
			t.EndCS(true, stats.CommitSGL, retries)
			return
		}
	}
}

// pathFail records a failed speculative attempt and emits a path-switch
// event when the selector falls back to the next path.
func (l *RWLE) pathFail(t *htm.Thread, sel *pathSelector, persistent bool) {
	was := sel.current()
	sel.failed(persistent)
	if now := sel.current(); now != was {
		t.C.Emit(machine.EvPathSwitch, 0, uint64(now))
	}
}

// recordAdapt feeds the adaptive controller, when enabled.
func (l *RWLE) recordAdapt(htmTried, htmWon bool) {
	if l.adapt != nil {
		l.adapt.record(htmTried, htmWon)
	}
}

// writeHTM attempts the critical section as a regular hardware transaction:
// eager subscription of the global lock, then — at unlock — suspend,
// quiesce readers, resume, commit (paper lines 41-46 and 68-72).
func (l *RWLE) writeHTM(t *htm.Thread, cs func()) htm.Status {
	// Let non-HTM writers finish before starting speculation (line 42).
	t.AwaitWord(l.wlock, stateMask, lockFree, true, htm.Backoff(8))
	return t.Try(false, func() {
		if !l.lazySubscription {
			if state(t.Load(l.wlock)) != lockFree { // subscribe (line 44)
				t.Abort(stats.AbortLockBusy)
			}
		}
		cs()
		if l.lazySubscription {
			// Sanitizer-validation mutation: subscribe only after the body
			// ran, so the transaction never entered the lock word into its
			// read set while executing — a fallback writer acquiring
			// mid-section goes unnoticed (see htm.Config.UnsafeLazySubscription).
			if state(t.Load(l.wlock)) != lockFree {
				t.Abort(stats.AbortLockBusy)
			}
		}
		if l.opts.SplitLocks {
			// Lazy subscription of the ROT lock: only at commit time, so
			// an HTM writer can overlap a ROT writer's critical section.
			if state(t.Load(l.rotLock)) != lockFree {
				t.Abort(stats.AbortLockBusy)
			}
		}
		t.Suspend()
		l.synchronize(t, false, noVerFilter)
		t.Resume()
		// Try commits on return: the hardware write-back is atomic.
	})
}

// doomedEarly reports whether the EarlyAbort extension should cut the
// quiescence loop short: the suspended transaction is already doomed
// (tcheck), so draining further readers is wasted time — the abort will
// fire at Resume regardless.
func (l *RWLE) doomedEarly(t *htm.Thread) bool {
	return l.opts.EarlyAbort && t.Suspended() && t.Doomed()
}

// writeROT attempts the critical section as a rollback-only transaction.
// ROTs cannot run concurrently with one another (their loads are
// untracked), so the path first acquires the writer lock; readers still
// run concurrently and the quiescence loop runs inline before commit —
// no suspend/resume needed since loads are invisible anyway (lines 47-54
// and 64-67).
func (l *RWLE) writeROT(t *htm.Thread, cs func()) htm.Status {
	lockWord := l.wlock
	if l.opts.SplitLocks {
		lockWord = l.rotLock
	}
	myVer := l.acquire(t, lockWord, lockROT)
	st := t.Try(true, func() {
		cs()
		if !l.skipROTQuiesce {
			// Always drain every in-flight reader here, even in the fair
			// variant. The version filter is only sound where later readers
			// are *blocked* by the lock word (the NS path): a reader that
			// enters under a ROT holder proceeds concurrently, and skipping
			// it would let the commit land mid-section — torn snapshot for
			// any word the reader read before the ROT claimed it (plain
			// reads leave no trace in the conflict directory, so nothing
			// dooms the ROT). Fairness is unaffected: reader overtaking
			// happens on the NS path, which keeps the filter.
			l.synchronize(t, false, noVerFilter)
		}
	})
	// Release the writer lock whether the ROT committed or aborted
	// (paper lines 53 and 67).
	t.Store(lockWord, myVer<<verShift|lockFree)
	return st
}

// writeNS executes the critical section non-speculatively under the global
// lock: acquire, drain readers, run, release (paper lines 55-60 and 62-63).
func (l *RWLE) writeNS(t *htm.Thread, cs func()) {
	myVer := l.acquire(t, l.wlock, lockNS)
	if l.opts.SplitLocks {
		// Serialize against a concurrent ROT writer.
		l.acquire(t, l.rotLock, lockNS)
	}
	l.synchronize(t, true, l.verFilter(myVer))
	cs()
	if l.opts.SplitLocks {
		t.Store(l.rotLock, lockFree)
	}
	t.Store(l.wlock, myVer<<verShift|lockFree)
}

// acquire spins until it installs `to` in the state bits of the lock word,
// bumping the version, and returns the new version (the fair variant uses
// it to skip readers that entered later; others carry it harmlessly). The
// loop runs as an engine-stepped wait.
func (l *RWLE) acquire(t *htm.Thread, word machine.Addr, to uint64) uint64 {
	return version(t.AwaitLock(word, stateMask, 1<<verShift, to, htm.Backoff(8)))
}

// noVerFilter disables version filtering in synchronize: every in-flight
// reader is drained. HTM-path writers never hold a version, so they always
// use it.
const noVerFilter = ^uint64(0)

// verFilter returns the quiescence version filter for the NS-path writer:
// its own version under the fair variant (safe there because later readers
// are blocked by the lockNS word and never run concurrently), no filtering
// otherwise.
func (l *RWLE) verFilter(myVer uint64) uint64 {
	if l.opts.Fair {
		return myVer
	}
	return noVerFilter
}

// synchronize is the RCU-like quiescence barrier (paper RWLE_SYNCHRONIZE):
// wait until every reader that was inside a critical section when we
// scanned has left it. singlePass applies the §3.3 optimization for the
// NS path, where new readers are blocked by the lock so one traversal
// suffices. In the fair variant, writers that hold a version skip readers
// that entered at or after their own version. The scan is one quiescence
// window (htm.Thread.Quiesce), closed also when it aborts the enclosing
// speculation.
func (l *RWLE) synchronize(t *htm.Thread, singlePass bool, myVer uint64) {
	t.Quiesce(func() {
		if singlePass {
			for i := 0; i < l.nthreads; i++ {
				l.waitReader(t, i, myVer)
			}
			return
		}
		for i, v := range l.clocks.Snapshot(t) {
			if v&1 == 0 {
				continue
			}
			w := &l.syncWaits[t.C.ID]
			*w = syncWait{l: l, t: t, i: i, snap: v, myVer: myVer, spin: htm.Poll(16), checkDoom: l.opts.EarlyAbort}
			t.C.Await(w)
			if w.doomed {
				return
			}
		}
	})
}

// waitReader waits for thread i to leave its current read critical section
// (single-traversal form: re-reads the clock directly).
func (l *RWLE) waitReader(t *htm.Thread, i int, myVer uint64) {
	c := t.LoadStream(l.clocks.Addr(i))
	if c&1 == 0 {
		return
	}
	w := &l.syncWaits[t.C.ID]
	*w = syncWait{l: l, t: t, i: i, snap: c, myVer: myVer, spin: htm.Poll(32)}
	t.C.Await(w)
}

// syncWait phases; each phase is one waiter step, mirroring one
// inter-Sync quantum of the open-coded loop.
const (
	syncPhaseClock = iota // poll reader i's clock
	syncPhaseVer          // fair variant: re-evaluate the version filter
	syncPhaseDoom         // EarlyAbort: tcheck the suspended speculation
)

// syncWait waits for reader i to leave the read section it was in when its
// clock was sampled as snap. The clock poll, the (fair-variant) version
// filter's load, and the EarlyAbort doom check are separate steps, exactly
// as they are separate scheduling points in the open-coded loop: the
// version filter must be re-evaluated every iteration (a reader racing its
// version publication against our clock sample would otherwise deadlock
// with us), and `Doomed` is specified to synchronize with the scheduler
// before sampling the flag — inside a step that Sync is a no-op, so the
// step boundary before syncPhaseDoom supplies the synchronization instead.
// A doomed tcheck sets doomed, telling synchronize to stop draining
// readers entirely. checkDoom gates the doom phase on Options.EarlyAbort;
// the Suspended() test rides in the step because doomedEarly
// short-circuits (no tcheck, hence no extra scheduling point) on the
// non-suspending paths.
type syncWait struct {
	l         *RWLE
	t         *htm.Thread
	i         int
	snap      uint64
	myVer     uint64
	spin      htm.Spin
	checkDoom bool
	phase     int
	doomed    bool
}

// Step implements machine.Waiter.
func (w *syncWait) Step(c *machine.CPU) bool {
	t, l := w.t, w.l
	switch w.phase {
	case syncPhaseClock:
		if t.Load(l.clocks.Addr(w.i)) != w.snap {
			return true
		}
		if w.myVer != noVerFilter {
			w.phase = syncPhaseVer
			return false
		}
		if w.checkDoom && t.Suspended() {
			w.phase = syncPhaseDoom
			return false
		}
	case syncPhaseVer:
		if !l.readerIsOlder(t, w.i, w.myVer) {
			return true
		}
		if w.checkDoom && t.Suspended() {
			w.phase = syncPhaseDoom
			return false
		}
		w.phase = syncPhaseClock
	case syncPhaseDoom:
		if l.doomedEarly(t) {
			w.doomed = true
			return true
		}
		w.phase = syncPhaseClock
	}
	w.spin.Wait(c)
	return false
}

// readerIsOlder reports whether reader i entered under a version strictly
// smaller than ver — i.e. before this writer acquired the lock — and must
// therefore be drained.
func (l *RWLE) readerIsOlder(t *htm.Thread, i int, ver uint64) bool {
	return version(t.Load(l.localAddr(i))) < ver
}
