package machine

import (
	"fmt"
	"iter"
)

// Counters aggregates per-CPU machine-level event counts for one Run.
type Counters struct {
	Reads      int64
	Writes     int64
	CASes      int64
	TLBMisses  int64
	PageFaults int64
	Interrupts int64
}

// CPU is one simulated hardware thread. All methods must be called from
// inside this CPU's body (see Machine.Run); the scheduler loop guarantees
// that only one CPU executes at a time.
type CPU struct {
	m   *Machine
	ID  int
	now int64

	// resume/stop/yield are the coroutine in which this CPU's body runs
	// for the current Run: the scheduler loop calls resume to give the CPU
	// the floor, Sync calls yield to park and hand control back, and stop
	// tears a still-parked coroutine down (abnormal exits only).
	resume  func() (struct{}, bool)
	stop    func()
	yield   func(struct{}) bool
	heapIdx int
	rng     rng

	// wake is this CPU's fast-path scheduling threshold: Sync keeps the
	// floor without any heap work while the CPU's packed (time, ID) key
	// stays below it. The scheduler loop refreshes it on every resume
	// under the default scheduler (see Machine.refreshWake); it is pinned
	// to minWake — forcing every Sync through syncSlow — under controlled
	// schedulers, which must observe every scheduling point. idKey is the
	// CPU's constant contribution to the packed key.
	wake  int64
	idKey int64

	// waiter, when non-nil, is the engine-stepped wait this CPU is parked
	// in: the scheduler loop (or a running CPU's syncSlow) calls its Step
	// at each of this CPU's turns instead of resuming the coroutine. See
	// Await. stepErr carries a panic raised inside an engine-side step
	// back onto this CPU's own stack, where Await re-raises it.
	waiter  Waiter
	stepErr any

	// stepWake holds the wake threshold while Await runs steps inline
	// (wake itself is maxWake then, so a step cannot park). Block and
	// Wake lower it, so the inline loop stops stepping once the CPU has
	// blocked or a CPU it woke is due.
	stepWake int64

	// blocked is set by Block and cleared by Wake. A blocked CPU is off
	// the heap: it is neither stepped nor resumed until a Wake.
	blocked bool

	tlb           []int64
	nextInterrupt int64
	streamRun     int64

	// OnInterrupt, if non-nil, is invoked when a timer interrupt is
	// delivered to this CPU. The HTM layer uses it to doom the in-flight
	// transaction (interrupts discard speculative state on real hardware).
	OnInterrupt func()
	// OnPageFault, if non-nil, is invoked when a memory access by this CPU
	// page-faults. The HTM layer uses it to doom the in-flight transaction.
	OnPageFault func()

	Counters Counters
}

// newCPU builds one CPU.
func newCPU(m *Machine, id int) *CPU {
	return &CPU{m: m, ID: id, heapIdx: -1, idKey: int64(id)}
}

// Scheduling keys pack a CPU's (virtual time, ID) pair into one int64 —
// now<<clockIDBits | ID — so the Sync fast path is a single comparison.
// MaxCPUs = 256 makes the ID field exactly clockIDBits wide, and virtual
// clocks stay far below 2^55 cycles (the deadline caps them at 1e14), so
// the shift cannot overflow.
const clockIDBits = 8

// minWake is a wake threshold below every valid key: it forces the next
// Sync through syncSlow.
const minWake = -1 << 62

// maxWake is a wake threshold above every valid key: it disables parking
// entirely, which is how Waiter steps run their single visible action
// without handing the floor away mid-step.
const maxWake = 1<<63 - 1

// runStopped is the panic payload Sync uses to unwind a body whose
// coroutine is being torn down (release after an abnormal Run exit). The
// seq root swallows exactly this value; everything else — including the
// HTM abort signal, which htm.Thread.Try always consumes inside the body —
// propagates to the scheduler loop unchanged.
type runStoppedSignal struct{}

var runStopped any = runStoppedSignal{}

// spawn creates the coroutine in which this CPU's body will run. The body
// does not start executing until the scheduler loop's first resume.
//
// A panic unwinding out of the body is captured here, at the coroutine's
// root, and recorded in the machine's runErr (first one wins); the
// coroutine then finishes normally so the scheduler loop can run the
// remaining CPUs to completion before Run re-raises it. Capturing at the
// root rather than around every resume keeps the per-handoff path free of
// defer/recover setup.
//
//simlint:allow abortflow the seq-root recover records CPU-body panics in runErr for Run to re-panic verbatim after the loop drains; an HTM abort signal can never reach it (htm.Thread.Try consumes it inside the body), and the engine's own teardown sentinel is deliberately swallowed
func (c *CPU) spawn(body func(*CPU)) {
	c.resume, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			c.yield = nil
			if r := recover(); r != nil && r != runStopped && c.m.runErr == nil {
				c.m.runErr = r
			}
		}()
		body(c)
	})
}

// park returns control to the scheduler loop and blocks until this CPU is
// resumed. If the coroutine is being torn down instead, it unwinds the
// body with the teardown sentinel.
func (c *CPU) park() {
	c.m.eng.Parks++
	if !c.yield(struct{}{}) {
		panic(runStopped)
	}
}

// release tears down this CPU's coroutine after a Run. It is a no-op for
// coroutines whose bodies already finished (the normal case).
func (c *CPU) release() {
	if c.stop != nil {
		c.stop()
		c.stop, c.resume = nil, nil
	}
}

func (c *CPU) beginRun(base int64) {
	c.now = base
	c.wake = minWake
	c.waiter = nil
	c.stepErr = nil
	c.blocked = false
	c.rng = newRNG(c.m.Cfg.Seed*0x9e3779b97f4a7c15 + uint64(c.ID)*0xbf58476d1ce4e5b9 + 1)
	c.Counters = Counters{}
	if len(c.tlb) != c.m.Cfg.Paging.TLBEntries {
		c.tlb = make([]int64, c.m.Cfg.Paging.TLBEntries)
	}
	for i := range c.tlb {
		c.tlb[i] = -1
	}
	c.nextInterrupt = 0
	c.scheduleInterrupt()
}

func (c *CPU) scheduleInterrupt() {
	mean := c.m.Cfg.Paging.InterruptMean
	if mean <= 0 {
		c.nextInterrupt = 1<<63 - 1
		return
	}
	// Uniform in [0.5, 1.5) * mean: jittered periodic timer.
	c.nextInterrupt = c.now + mean/2 + int64(c.rng.Next()%uint64(mean))
}

// Machine returns the machine this CPU belongs to.
func (c *CPU) Machine() *Machine { return c.m }

// Now returns this CPU's virtual clock.
func (c *CPU) Now() int64 { return c.now }

// Costs returns the machine's cost model.
func (c *CPU) Costs() *CostModel { return &c.m.Cfg.Costs }

// Intn returns a deterministic pseudo-random int in [0, n).
func (c *CPU) Intn(n int) int { return c.rng.Intn(n) }

// Float64 returns a deterministic pseudo-random float64 in [0, 1).
func (c *CPU) Float64() float64 { return c.rng.Float64() }

// Rand64 returns 64 deterministic pseudo-random bits.
func (c *CPU) Rand64() uint64 { return c.rng.Next() }

// Tick advances this CPU's virtual clock by n cycles of local computation.
func (c *CPU) Tick(n int64) { c.now += n }

// Work charges n units of ALU work (n * Costs.Work cycles).
func (c *CPU) Work(n int64) { c.now += n * c.m.Cfg.Costs.Work }

// Sync blocks until this CPU is the scheduler's minimum-time CPU. Every
// globally visible action must happen between a Sync and the next clock
// advance so that actions are linearized in virtual-time order.
//
// The fast path — all other runnable CPUs are parked with frozen clocks,
// so this CPU keeps the floor iff it is still (time, ID)-ahead of the
// cached best of them — is small enough to inline into the access
// functions; everything else lives in syncSlow. The wake threshold is
// clamped to the deadline (see refreshWake), so the livelock check also
// rides on the same comparison.
func (c *CPU) Sync() {
	if c.now<<clockIDBits|c.idKey < c.wake {
		return
	}
	c.syncSlow()
}

// syncSlow is Sync off the fast path: this CPU is no longer the minimum
// (or a controlled scheduler is installed, which must see every scheduling
// point), so repair the heap, pick a successor and park. The heap is
// repaired lazily here rather than at every clock advance; parked CPUs'
// clocks are frozen, so only this CPU's position can be stale.
func (c *CPU) syncSlow() {
	m := c.m
	m.eng.SyncSlow++
	if c.now > m.Cfg.Deadline {
		panic(fmt.Sprintf("machine: CPU %d exceeded virtual deadline (%d cycles): livelock?", c.ID, m.Cfg.Deadline))
	}
	if m.sched == nil {
		// The fast-path test failing means another runnable CPU is
		// strictly (time, ID)-ahead, so after the heap repair the minimum
		// cannot be this CPU. If the CPUs due before us are engine-stepped
		// waiters, run their steps right here — no coroutine switch — and
		// re-check; park only when a CPU that needs its own stack (or a
		// waiter whose wait just completed) is due.
		m.heap.fix(c)
		for {
			next := m.heap.min()
			if next == c {
				// Every CPU that was due was a waiter we stepped past
				// us: we are the minimum again and keep the floor.
				m.refreshWake(c)
				return
			}
			if next.waiter != nil && !m.stepWaiter(next) {
				continue
			}
			m.next = next
			c.park()
			return
		}
	}
	m.heap.fix(c)
	next := m.pickNext(c)
	if next == c {
		return
	}
	m.next = next
	c.park()
}

// IdleUntil advances this CPU's virtual clock to time t — a no-op when t
// is in the past — and reschedules. It models a CPU idling for an
// externally timed event, e.g. an open-system server waiting for the next
// request arrival: no work is charged, no memory is touched, and other
// CPUs run in the meantime. Unlike Spin it burns no spin-loop cost, so an
// idle server does not perturb the coherence or cost model.
func (c *CPU) IdleUntil(t int64) {
	if t > c.now {
		idled := t - c.now
		c.now = t
		// Stamp the slept span for the profiler: Aux cycles ending now.
		c.Emit(EvIdle, 0, uint64(idled))
	}
	c.Sync()
}

// Spin charges one spin-loop iteration (plus seeded jitter — see
// CostModel.SpinJitter) and reschedules. Call it inside busy-wait loops so
// that waiting advances virtual time.
func (c *CPU) Spin() {
	c.SpinFor(1)
}

// SpinFor charges n spin-loop iterations as a single scheduling step.
// Waiters polling a slow-changing condition should escalate n (bounded)
// instead of calling Spin per iteration: the virtual time is the same, but
// the simulation takes one event instead of n, which is what keeps
// 80-thread contention scenarios tractable in wall time.
func (c *CPU) SpinFor(n int) {
	if n < 1 {
		n = 1
	}
	c.now += int64(n) * c.m.Cfg.Costs.SpinIter
	if j := c.m.Cfg.Costs.SpinJitter; j > 0 {
		c.now += int64(c.rng.Next() % uint64(int64(n)*j))
	}
	c.Sync()
}

// Waiter is a resumable wait executed by the scheduler loop on behalf of
// a parked CPU — the spin-wait loops of the lock layers expressed as small
// state machines instead of loops on a coroutine stack. Step runs at the
// CPU's scheduling turn and must perform AT MOST ONE globally visible
// action (one timed memory access) plus any private work (clock advances,
// rng draws, local predicate evaluation); it returns true when the wait is
// over. Because a step is the unit of scheduling, everything inside it is
// atomic in virtual time — which is exactly the atomicity the open-coded
// loop had between one access's Sync and the next, so results and event
// streams are bit-identical to running the same code on the coroutine.
//
// A Step may panic (e.g. an HTM load that dooms-and-aborts its own
// transaction); the panic is re-raised from Await on the waiting CPU's own
// stack, exactly where the open-coded loop would have raised it.
//
// A Step that has nothing to do until another CPU acts may call Block and
// return false: the CPU then leaves the scheduler, costing nothing, until
// a step or body of another CPU calls Wake on it.
type Waiter interface {
	Step(c *CPU) bool
}

// Await runs w to completion at this CPU's scheduling turns. While the CPU
// stays the minimum, steps run inline right here; once another CPU is due,
// the CPU parks with the waiter installed and the engine steps it from the
// scheduler loop — no coroutine switches — until a step reports the wait
// is over. A long poll loop therefore costs two host context switches in
// total instead of two per iteration.
//
// Controlled schedulers must observe every scheduling point with the same
// choice sets as the open-coded loop, so under them the steps run on this
// coroutine with Sync behaving normally, and a blocked CPU parks on its
// own coroutine until it is woken.
func (c *CPU) Await(w Waiter) {
	m := c.m
	if m.sched != nil {
		for {
			m.eng.InlineSteps++
			if w.Step(c) {
				return
			}
			if c.blocked {
				m.heap.remove(c)
				m.next = m.pickNext(nil)
				c.park()
			}
		}
	}
	c.Sync()
	// We hold the floor: parking is disabled during a step, so each step
	// performs its single visible action at exactly the virtual time the
	// open-coded loop would have. The saved threshold stays valid while
	// we run — every other runnable CPU's clock is frozen, and a CPU a
	// step wakes lowers it (see Wake).
	c.stepWake = c.wake
	c.wake = maxWake
	//simlint:allow abortflow a step may abort its own transaction (a quiescence-scan load dooming the enclosing ROT); the recover restores the wake threshold the panic would otherwise skip past, then re-panics verbatim for htm.Thread.Try
	defer func() {
		if r := recover(); r != nil {
			c.wake = c.stepWake
			panic(r)
		}
	}()
	for {
		m.eng.InlineSteps++
		if w.Step(c) {
			c.wake = c.stepWake
			return
		}
		if c.now<<clockIDBits|c.idKey < c.stepWake {
			continue
		}
		break
	}
	c.waiter = w
	if c.blocked {
		m.heap.remove(c)
	} else {
		m.heap.fix(c)
	}
	m.next = m.heap.min()
	c.park()
	if r := c.stepErr; r != nil {
		c.stepErr = nil
		panic(r)
	}
}

// Block takes this CPU off the scheduler once the current Waiter step
// returns false. Call it only inside a step, which must then return
// false. The CPU keeps its clock and its waiter; it is not stepped again,
// and emits nothing, until another CPU calls Wake on it. Run panics if a
// CPU is still blocked when no CPU is left to run.
func (c *CPU) Block() {
	c.blocked = true
	c.stepWake = minWake // ends Await's inline loop
	c.m.eng.Blocks++
}

// Blocked reports whether the CPU is blocked (see Block).
func (c *CPU) Blocked() bool { return c.blocked }

// Wake puts blocked CPU b back on the scheduler at time t, which must be
// no earlier than either CPU's clock; b's next step then runs at its
// (t, ID) turn. The caller must hold the floor (after a Sync, or inside a
// Waiter step). The span b slept is emitted as one EvIdle stamped t on
// b. b may be due before the waker, so the waker's wake threshold is
// lowered to b's key: the waker keeps the floor until its next
// scheduling point, as if b had been runnable all along.
//
// Under a controlled scheduler a step may reach a scheduling point after
// its Block; a Wake that arrives then cancels the block, and b stays
// runnable.
func (c *CPU) Wake(b *CPU, t int64) {
	if !b.blocked {
		panic(fmt.Sprintf("machine: CPU %d woke CPU %d, which is not blocked", c.ID, b.ID))
	}
	if t < c.now || t < b.now {
		panic(fmt.Sprintf("machine: CPU %d woke CPU %d at %d, before a clock (waker %d, woken %d)", c.ID, b.ID, t, c.now, b.now))
	}
	m := c.m
	m.eng.Wakes++
	b.blocked = false
	if t > b.now {
		idled := t - b.now
		b.now = t
		b.Emit(EvIdle, 0, uint64(idled))
	}
	if b.heapIdx >= 0 {
		m.heap.fix(b) // still runnable: the block is cancelled
		return
	}
	m.heap.fix(c) // the waker's key may have grown since its placement
	m.heap.push(b)
	k := t<<clockIDBits | b.idKey
	if c.wake == maxWake {
		// Inside a step: Await restores the threshold from stepWake.
		c.stepWake = min(c.stepWake, k)
	} else {
		c.wake = min(c.wake, k)
	}
}

// preAccess delivers any pending timer interrupt and walks the TLB/page
// tables for address a. It may invoke the OnInterrupt/OnPageFault hooks.
func (c *CPU) preAccess(a Addr) {
	if c.now >= c.nextInterrupt || c.m.pager.enabled {
		c.preAccessSlow(a)
	}
}

// preAccessSlow handles the non-trivial preAccess cases: a due timer
// interrupt, or any access while paging is enabled (TLB and page walks).
func (c *CPU) preAccessSlow(a Addr) {
	if c.now >= c.nextInterrupt {
		c.now += c.m.Cfg.Costs.Interrupt
		c.Counters.Interrupts++
		c.Emit(EvInterrupt, a, 0)
		c.scheduleInterrupt()
		if c.OnInterrupt != nil {
			c.OnInterrupt()
		}
	}
	pg := &c.m.pager
	if !pg.enabled {
		return
	}
	page := int64(a) / pg.pageWords
	slot := page % int64(len(c.tlb))
	if c.tlb[slot] == page {
		return
	}
	c.Counters.TLBMisses++
	c.now += c.m.Cfg.Costs.TLBWalk
	if !pg.pages[page].resident {
		c.Counters.PageFaults++
		c.now += c.m.Cfg.Costs.PageFault
		c.Emit(EvPageFault, a, uint64(page))
		pg.makeResident(c.m, page)
		if c.OnPageFault != nil {
			c.OnPageFault()
		}
	}
	pg.pages[page].referenced = true
	c.tlb[slot] = page
}

// AccessRead charges the coherence cost of reading address a (without
// transferring data). It is split out so the HTM layer can interpose
// conflict detection between timing and the data movement.
func (c *CPU) AccessRead(a Addr) {
	c.Sync()
	c.preAccess(a)
	c.Counters.Reads++
	c.streamRun = 0
	m := c.m
	r := m.lineRec(m.LineOf(a))
	t0 := c.now
	if x := int64(r[recExcl]); x > t0 {
		t0 = x
	}
	// The owner is always a sharer (a write miss makes its CPU owner and
	// sole sharer, and only the next write miss clears the bitmap), so a
	// sharer test alone tells a hit from a miss.
	cost := m.Cfg.Costs.L1Hit
	if sh := m.sharers(r); !sh.Has(c.ID) {
		cost = m.Cfg.Costs.ReadMiss
		sh.Add(c.ID)
	}
	c.now = t0 + cost
}

// AccessReadStream charges the coherence cost of reading address a as part
// of a *streaming scan of independent addresses* (an array sweep such as
// RW-LE's quiescence scan over per-thread clock lines). Out-of-order
// hardware overlaps such misses (memory-level parallelism), so consecutive
// stream misses after the first are charged ReadMiss/MLP. Dependent loads
// (pointer chasing) must use AccessRead, which pays full latency — the
// distinction is the caller's responsibility because only the program
// knows its address dependencies.
func (c *CPU) AccessReadStream(a Addr) {
	c.Sync()
	c.preAccess(a)
	c.Counters.Reads++
	m := c.m
	r := m.lineRec(m.LineOf(a))
	t0 := c.now
	if x := int64(r[recExcl]); x > t0 {
		t0 = x
	}
	cost := m.Cfg.Costs.L1Hit
	if sh := m.sharers(r); !sh.Has(c.ID) {
		cost = m.Cfg.Costs.ReadMiss
		if c.streamRun > 0 {
			cost /= mlpOverlap
		}
		c.streamRun++
		sh.Add(c.ID)
	}
	c.now = t0 + cost
}

// mlpOverlap is the miss-overlap factor applied to streaming scans.
const mlpOverlap = 4

// AccessWrite charges the coherence cost of writing address a: obtaining
// the line in exclusive state and reserving it for the transfer window.
func (c *CPU) AccessWrite(a Addr) {
	c.Sync()
	c.preAccess(a)
	c.Counters.Writes++
	c.streamRun = 0
	m := c.m
	r := m.lineRec(m.LineOf(a))
	t0 := c.now
	if x := int64(r[recExcl]); x > t0 {
		t0 = x
	}
	sh := m.sharers(r)
	if int(r[recOwner]&ownerMask) == c.ID+1 && sh.only(c.ID) {
		c.now = t0 + m.Cfg.Costs.WriteHit
		return
	}
	// Take the line exclusive: this CPU becomes owner and sole sharer.
	r[recOwner] = r[recOwner]&^ownerMask | uint64(c.ID+1)
	sh.setOnly(c.ID)
	r[recExcl] = uint64(t0 + m.Cfg.Costs.LineTransfer)
	c.now = t0 + m.Cfg.Costs.WriteMiss
}

// Read performs a timed, coherent, non-transactional read of word a.
// It does not consult the HTM conflict directory; use the htm package for
// accesses that must interact with speculating transactions.
func (c *CPU) Read(a Addr) uint64 {
	c.AccessRead(a)
	v := c.m.words[a]
	c.Emit(EvRead, a, v)
	return v
}

// Write performs a timed, coherent, non-transactional write of word a.
func (c *CPU) Write(a Addr, v uint64) {
	c.AccessWrite(a)
	c.m.words[a] = v
	c.Emit(EvWrite, a, v)
}

// CAS performs a timed compare-and-swap on word a and reports whether it
// succeeded. Like Read/Write it bypasses the HTM conflict directory.
func (c *CPU) CAS(a Addr, old, new uint64) bool {
	c.AccessWrite(a)
	c.now += c.m.Cfg.Costs.CAS
	c.Counters.CASes++
	c.Emit(EvCAS, a, new)
	if c.m.words[a] != old {
		return false
	}
	c.m.words[a] = new
	return true
}

// Fence charges the cost of a memory barrier. Ordering itself is implicit:
// the simulator is sequentially consistent.
func (c *CPU) Fence() { c.now += c.m.Cfg.Costs.Fence }

// Alloc allocates n words of simulated memory, charging allocation cost.
// The memory is zeroed: fresh words are zero from New, and a recycled
// block is cleared. Writes must stay inside the block (see arena).
func (c *CPU) Alloc(n int64) Addr {
	c.now += c.m.Cfg.Costs.Alloc
	return c.m.allocWords(n, false)
}

// AllocAligned allocates n words starting on a cache-line boundary,
// charging allocation cost. The memory is zeroed, as for Alloc.
func (c *CPU) AllocAligned(n int64) Addr {
	c.now += c.m.Cfg.Costs.Alloc
	return c.m.allocWords(n, true)
}

// Free returns a block previously obtained from Alloc (NOT AllocAligned)
// with the same size to the allocator.
func (c *CPU) Free(a Addr, n int64) {
	c.now += c.m.Cfg.Costs.Alloc / 2
	c.m.freeWords(a, n, false)
}

// FreeAligned returns a block previously obtained from AllocAligned with
// the same requested size to the allocator. Aligned blocks live in their
// own (line-rounded) size classes, so they must be released through this
// call — releasing them through Free strands them in a class no aligned
// allocation ever searches.
func (c *CPU) FreeAligned(a Addr, n int64) {
	c.now += c.m.Cfg.Costs.Alloc / 2
	c.m.freeWords(a, n, true)
}
