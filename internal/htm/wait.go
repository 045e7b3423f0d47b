package htm

import "hrwle/internal/machine"

// This file is the one wait vocabulary of the lock layers. Spin is the only
// inter-poll delay a wait may take, and every wait on a word runs as a
// machine.Waiter state machine, so contended spin waits are stepped by the
// scheduler loop instead of round-tripping through a coroutine per poll.
// There are three: AwaitWord polls a word until it does or does not match a
// value, AwaitLock (and its plain-TATAS form AwaitAcquire) acquires a lock
// word, and Clocks.Drain waits out the readers of a reader-clock epoch. The
// first two are stamped with one EvLockWait when they end; a Drain, like
// every other wait inside a quiescence window (Quiesce: RW-LE's reader
// scans, PRWL's writer consensus), carries none, because the window
// already accounts for its cycles. Each Step performs exactly the
// visible accesses, clock advances and rng draws of one iteration of the
// open-coded loop it replaces — split into one visible access per step —
// so results and event streams are bit-identical. The shared waiter values
// live on the Thread and are reused; a thread runs at most one wait at a
// time, and a Step never starts another.

// Spin is the delay between two polls of a wait: an escalating
// deterministic poll (the quiescence-scan idiom, Poll) or bounded
// randomized exponential backoff (the contended-acquisition idiom,
// Backoff) — without the randomization a cohort of spinners can exclude
// one contender more or less indefinitely. A Spin carries its escalation
// from one Wait to the next, so a retry loop whose backoff outlives one
// wait keeps it in one variable.
type Spin struct {
	poll     int
	pollCap  int
	random   bool
	shift    uint
	shiftCap uint
}

// Poll returns a deterministic Spin that waits 1, 2, 4, ... spin
// iterations, up to pollCap.
func Poll(pollCap int) Spin { return Spin{poll: 1, pollCap: pollCap} }

// Backoff returns a randomized Spin that waits 1 + rand(2^k) spin
// iterations for k = 0, 1, 2, ... up to shiftCap.
func Backoff(shiftCap uint) Spin { return Spin{random: true, shiftCap: shiftCap} }

// Wait charges one delay to c and escalates the next.
func (s *Spin) Wait(c *machine.CPU) {
	if s.random {
		c.SpinFor(1 + c.Intn(1<<s.shift))
		if s.shift < s.shiftCap {
			s.shift++
		}
		return
	}
	c.SpinFor(s.poll)
	if s.poll < s.pollCap {
		s.poll *= 2
	}
}

// await runs w to completion as an engine-stepped wait on word a, then
// stamps an EvLockWait covering it: Addr is a, Aux the cycles spent. The
// stamp is emitted only when time actually passed, so an instant hit stays
// event-free, and charges nothing, preserving virtual time exactly.
func (t *Thread) await(a machine.Addr, w machine.Waiter) {
	start := t.C.Now()
	t.C.Await(w)
	if d := t.C.Now() - start; d > 0 {
		t.C.Emit(machine.EvLockWait, a, uint64(d))
	}
}

// wordWait polls one word until (Load(a)&mask == want) matches exitEq.
type wordWait struct {
	t      *Thread
	a      machine.Addr
	mask   uint64
	want   uint64
	exitEq bool
	spin   Spin
}

// Step implements machine.Waiter: one load, then a Spin.
func (w *wordWait) Step(c *machine.CPU) bool {
	if (w.t.Load(w.a)&w.mask == w.want) == w.exitEq {
		return true
	}
	w.spin.Wait(c)
	return false
}

// AwaitWord parks the calling CPU until Load(a)&mask compares to want as
// exitEq requests, with s between polls. It returns s as the wait left it,
// so a retry loop whose backoff outlives one wait (HLE's) carries the
// escalation across calls.
func (t *Thread) AwaitWord(a machine.Addr, mask, want uint64, exitEq bool, s Spin) Spin {
	t.ww = wordWait{t: t, a: a, mask: mask, want: want, exitEq: exitEq, spin: s}
	t.await(a, &t.ww)
	return t.ww.spin
}

// tatasWait acquires a test-and-test-and-set lock word: load until the bits
// under mask read 0, then CAS the word from the value v it read to
// (v+add)|set, backing off after a busy load or a lost CAS.
type tatasWait struct {
	t              *Thread
	a              machine.Addr
	mask, add, set uint64
	v              uint64 // the value read free: the CAS's expected operand
	casing         bool
	spin           Spin
}

// Step implements machine.Waiter: the load and the CAS of one acquisition
// attempt are separate steps, exactly as they are separate scheduling
// points in the open-coded loop.
func (w *tatasWait) Step(c *machine.CPU) bool {
	if w.casing {
		w.casing = false
		if w.t.CAS(w.a, w.v, (w.v+w.add)|w.set) {
			return true
		}
	} else if v := w.t.Load(w.a); v&w.mask == 0 {
		w.v = v
		w.casing = true
		return false
	}
	w.spin.Wait(c)
	return false
}

// AwaitLock acquires the lock word a once the bits under mask read free,
// installing (v+add)|set over the value v it read, with s between polls,
// and returns the installed value. RW-LE's lock word keeps its state under
// mask and bumps a version above it through add.
func (t *Thread) AwaitLock(a machine.Addr, mask, add, set uint64, s Spin) uint64 {
	t.tas = tatasWait{t: t, a: a, mask: mask, add: add, set: set, spin: s}
	t.await(a, &t.tas)
	return (t.tas.v + add) | set
}

// AwaitAcquire acquires a plain TATAS word lock (0 free, 1 held) with s
// between polls: Backoff for the spin-lock idiom of internal/locks and
// RW-LE_basic's writer lock, Poll for the rcu/kyoto mutex idiom.
func (t *Thread) AwaitAcquire(a machine.Addr, s Spin) {
	t.AwaitLock(a, ^uint64(0), 0, 1, s)
}
