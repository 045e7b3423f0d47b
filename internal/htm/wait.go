package htm

import "hrwle/internal/machine"

// This file is the one wait vocabulary of the lock layers. Spin is the only
// inter-poll delay a wait may take, and Await the only way a wait on a word
// runs: as a machine.Waiter state machine, so contended spin waits are
// stepped by the scheduler loop instead of round-tripping through a
// coroutine per poll, stamped with one EvLockWait when they end. Each Step
// performs exactly the visible accesses, clock advances and rng draws of
// one iteration of the open-coded loop it replaces — split into one
// visible access per step — so results and event streams are
// bit-identical. The shared waiter values live on the Thread and are
// reused; a thread runs at most one wait at a time, and a Step never
// starts another.

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

// Await runs w to completion as an engine-stepped wait on word a, then
// stamps an EvLockWait covering it: Addr is a, Aux the cycles spent. The
// stamp is emitted only when time actually passed, so an instant hit stays
// event-free, and charges nothing, preserving virtual time exactly.
func (t *Thread) Await(a machine.Addr, w machine.Waiter) {
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
// exitEq requests, polling with exponential escalation up to pollCap
// cycles per poll.
func (t *Thread) AwaitWord(a machine.Addr, mask, want uint64, exitEq bool, pollCap int) {
	t.ww = wordWait{t: t, a: a, mask: mask, want: want, exitEq: exitEq, spin: Poll(pollCap)}
	t.Await(a, &t.ww)
}

// AwaitWordBackoff is AwaitWord with b, a Backoff, between polls. It
// returns b as the wait left it, so a retry loop whose backoff outlives one
// wait (HLE's) carries the escalation across calls.
func (t *Thread) AwaitWordBackoff(a machine.Addr, mask, want uint64, exitEq bool, b Spin) Spin {
	t.ww = wordWait{t: t, a: a, mask: mask, want: want, exitEq: exitEq, spin: b}
	t.Await(a, &t.ww)
	return t.ww.spin
}

// tatasWait acquires a test-and-test-and-set word lock: load until the word
// reads 0, then CAS it to 1, backing off after a busy load or a lost CAS.
type tatasWait struct {
	t      *Thread
	a      machine.Addr
	casing bool
	spin   Spin
}

// Step implements machine.Waiter: the load and the CAS of one acquisition
// attempt are separate steps, exactly as they are separate scheduling
// points in the open-coded loop.
func (w *tatasWait) Step(c *machine.CPU) bool {
	if w.casing {
		w.casing = false
		if w.t.CAS(w.a, 0, 1) {
			return true
		}
	} else if w.t.Load(w.a) == 0 {
		w.casing = true
		return false
	}
	w.spin.Wait(c)
	return false
}

// AwaitAcquire acquires a TATAS word lock with randomized exponential
// backoff bounded by shiftCap (the spin-lock idiom of internal/locks and
// RW-LE_basic's writer lock).
func (t *Thread) AwaitAcquire(a machine.Addr, shiftCap uint) {
	t.tas = tatasWait{t: t, a: a, spin: Backoff(shiftCap)}
	t.Await(a, &t.tas)
}

// AwaitAcquirePoll acquires a TATAS word lock with escalating deterministic
// polls bounded by pollCap (the rcu/kyoto mutex idiom).
func (t *Thread) AwaitAcquirePoll(a machine.Addr, pollCap int) {
	t.tas = tatasWait{t: t, a: a, spin: Poll(pollCap)}
	t.Await(a, &t.tas)
}
