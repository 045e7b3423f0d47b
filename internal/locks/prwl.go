package locks

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// PRWL is a passive reader-writer lock in the style of Liu, Zhang and
// Chen (USENIX ATC'14). Readers are "passive": entering and leaving a read
// critical section touches only the thread's own status line — no shared
// counter, no atomic instruction. Writers run a version-based consensus:
// they publish a new version and wait until every reader either is outside
// its critical section or has reported seeing the latest version.
//
// The original design targets total-store-order architectures and was
// therefore excluded from the paper's POWER8 evaluation ("designed for
// total store order architectures, which is not the case of PowerPC").
// This simulator is sequentially consistent, so the comparison the paper
// could not run becomes possible — see the "ext-prwl" experiment.
type PRWL struct {
	version  machine.Addr // global writer version
	wactive  machine.Addr // a writer is inside its critical section
	wmutex   machine.Addr // serializes writers
	statuses machine.Addr // per-thread {active, seenVersion} lines
	n        int
	lineW    machine.Addr

	// waits[i] is thread i's reusable consensus waiter (host-side state,
	// owned by the running thread like RWLE's scratch buffers).
	waits []prwlWait
}

// Per-thread status line layout.
const (
	prwlActive = 0 // 1 while inside a read critical section
	prwlSeen   = 1 // last writer version this reader reported
)

// NewPRWL creates a passive reader-writer lock for every CPU of the
// system.
func NewPRWL(sys *htm.System) *PRWL {
	m := sys.M
	n := m.Cfg.CPUs
	return &PRWL{
		version:  m.AllocRawAligned(1),
		wactive:  m.AllocRawAligned(1),
		wmutex:   m.AllocRawAligned(1),
		statuses: m.AllocRawAligned(int64(n) * m.Cfg.LineWords),
		n:        n,
		lineW:    machine.Addr(m.Cfg.LineWords),
		waits:    make([]prwlWait, n),
	}
}

// prwlWait is the writer's per-reader consensus wait as an engine-stepped
// state machine: the streamed active load and the seen-version load of one
// iteration are separate steps, exactly as they are separate scheduling
// points in the open-coded loop; the escalating poll follows a seen-version
// miss, as it did there.
type prwlWait struct {
	t         *htm.Thread
	active    machine.Addr
	seen      machine.Addr
	ver       uint64
	seenPhase bool
	spin      htm.Spin
}

// Step implements machine.Waiter.
func (w *prwlWait) Step(c *machine.CPU) bool {
	if w.seenPhase {
		w.seenPhase = false
		if w.t.Load(w.seen) >= w.ver {
			return true
		}
		w.spin.Wait(c)
		return false
	}
	if w.t.LoadStream(w.active) != 1 {
		return true
	}
	w.seenPhase = true
	return false
}

// Name implements rwlock.Lock.
func (l *PRWL) Name() string { return "PRWL" }

func (l *PRWL) status(i int) machine.Addr { return l.statuses + machine.Addr(i)*l.lineW }

// Read implements rwlock.Lock: the passive fast path writes only the
// thread's own status line.
func (l *PRWL) Read(t *htm.Thread, cs func()) {
	t.BeginCS(false)
	st := l.status(t.C.ID)
	for {
		t.Store(st+prwlActive, 1)
		t.C.Fence()
		if t.Load(l.wactive) == 0 {
			break
		}
		// A writer is inside: step back and wait for it to finish.
		t.Store(st+prwlActive, 0)
		t.AwaitWord(l.wactive, ^uint64(0), 0, true, htm.Poll(32))
	}
	cs()
	// Leave and report the version we are current with.
	t.Store(st+prwlSeen, t.Load(l.version))
	t.Store(st+prwlActive, 0)
	t.EndCS(false, stats.CommitUninstrumented, 0)
}

// Write implements rwlock.Lock: version-based consensus with every reader.
func (l *PRWL) Write(t *htm.Thread, cs func()) {
	t.BeginCS(true)
	t.AwaitAcquire(l.wmutex, htm.Backoff(8))
	ver := t.Load(l.version) + 1
	t.Store(l.version, ver)
	t.Store(l.wactive, 1)
	t.C.Fence()
	// Wait for each reader to be quiescent: outside its section, or
	// having reported the new version (it entered after our publication
	// and will wait on wactive next time). The consensus is one quiescence
	// window.
	t.Quiesce(func() {
		for i := 0; i < l.n; i++ {
			if i == t.C.ID {
				continue
			}
			w := &l.waits[t.C.ID]
			*w = prwlWait{t: t, active: l.status(i) + prwlActive, seen: l.status(i) + prwlSeen, ver: ver, spin: htm.Poll(16)}
			t.C.Await(w)
		}
	})
	cs()
	t.Store(l.wactive, 0)
	spinRelease(t, l.wmutex)
	t.EndCS(true, stats.CommitSGL, 0)
}
