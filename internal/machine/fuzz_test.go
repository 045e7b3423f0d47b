package machine_test

import (
	"errors"
	"fmt"
	"testing"

	"hrwle/internal/machine"
)

// This file cross-checks the inline scheduler loop against a naive
// reference interpreter. Random small programs — private work, fences,
// loads, stores, CASes, spin-yields, engine-stepped waits (Await), blocks
// and wakes, and body panics — run on the real engine under both the default minimum-time
// policy and seeded random controlled schedulers; the reference interpreter
// replays the same programs with the cost model applied longhand, one
// visible action at a time, with none of the engine's machinery (no
// coroutines, no wake thresholds, no heap, no waiter stepping). Event
// streams, final memory, per-CPU clocks and counters, block and wake
// counts, elapsed virtual time or the run-end panic, and — under
// controlled schedulers — the exact number of Pick calls must all agree.

// fuzzOpKind enumerates the program ops the fuzzer generates.
type fuzzOpKind uint8

const (
	opWork  fuzzOpKind = iota // private ALU work, no scheduling point
	opFence                   // private barrier cost, no scheduling point
	opSpin                    // SpinFor: clock advance + one scheduling point
	opRead
	opWrite
	opCAS
	opAwait // engine-stepped bounded wait for mem[a] != 0
	opSleep // n spin steps, then block until another CPU wakes this one
	opWake  // v1 spin steps, then wake CPU n if it is blocked
	opPanic // body panic unwinding to Run
)

type fuzzOp struct {
	kind   fuzzOpKind
	a      machine.Addr
	v1, v2 uint64
	n      int
}

// fuzzAddrs is the address pool: three words on one cache line, one on a
// neighboring line, and four on widely separated lines (LineWords = 16).
var fuzzAddrs = [8]machine.Addr{64, 65, 72, 80, 256, 512, 1024, 2048}

// errInjected is the body-panic payload; Run must re-raise it verbatim
// after draining the remaining CPUs.
var errInjected = errors.New("fuzz: injected body panic")

// awaitPollCap bounds the poll escalation of the fuzz waiter.
const awaitPollCap = 8

// fuzzCosts is the default cost model with spin jitter removed: the
// reference interpreter then needs no model of the per-CPU random streams,
// and every run is a closed-form function of the programs and the schedule.
func fuzzCosts() machine.CostModel {
	c := machine.DefaultCosts()
	c.SpinJitter = 0
	return c
}

// fuzzWait waits until mem[a] != 0, giving up after max loads so that every
// program terminates under every schedule. Step performs exactly one
// visible access (the load); the poll escalation between loads is private.
type fuzzWait struct {
	a        machine.Addr
	max      int
	attempts int
	poll     int
}

func (w *fuzzWait) Step(c *machine.CPU) bool {
	v := c.Read(w.a)
	w.attempts++
	if v != 0 || w.attempts >= w.max {
		return true
	}
	c.SpinFor(w.poll)
	if w.poll < awaitPollCap {
		w.poll *= 2
	}
	return false
}

// fuzzSleep spins for `spins` steps, then blocks; the step after the wake
// ends the wait. Each step opens with its scheduling point.
type fuzzSleep struct {
	spins   int
	blocked bool
}

func (w *fuzzSleep) Step(c *machine.CPU) bool {
	c.Sync()
	if w.blocked {
		return true
	}
	if w.spins > 0 {
		w.spins--
		c.Tick(c.Costs().SpinIter)
		return false
	}
	w.blocked = true
	c.Block()
	return false
}

// fuzzWake spins for `spins` steps, then wakes b, if b is blocked, at the
// later of the two CPUs' clocks. After a spin the CPU may have lost the
// floor, so the waking step may run in the engine rather than inline.
type fuzzWake struct {
	spins int
	b     *machine.CPU
}

func (w *fuzzWake) Step(c *machine.CPU) bool {
	c.Sync()
	if w.spins > 0 {
		w.spins--
		c.Tick(c.Costs().SpinIter)
		return false
	}
	if w.b.Blocked() {
		c.Wake(w.b, max(c.Now(), w.b.Now()))
	}
	return true
}

// runFuzzBody interprets one CPU's program on the real engine.
func runFuzzBody(c *machine.CPU, ops []fuzzOp) {
	for _, o := range ops {
		switch o.kind {
		case opWork:
			c.Work(int64(o.n))
		case opFence:
			c.Fence()
		case opSpin:
			c.SpinFor(o.n)
		case opRead:
			c.Read(o.a)
		case opWrite:
			c.Write(o.a, o.v1)
		case opCAS:
			c.CAS(o.a, o.v1, o.v2)
		case opAwait:
			c.Await(&fuzzWait{a: o.a, max: o.n, poll: 1})
		case opSleep:
			c.Await(&fuzzSleep{spins: o.n})
		case opWake:
			c.Await(&fuzzWake{spins: int(o.v1), b: c.Machine().CPU(o.n)})
		case opPanic:
			panic(errInjected)
		}
	}
}

// xrng is a tiny xorshift64* generator. The controlled scheduler and the
// reference interpreter each own one seeded identically; they stay in
// lockstep exactly when the engine presents the same choice points in the
// same order, which is part of what the comparison verifies.
type xrng uint64

func (r *xrng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = xrng(x)
	return x * 2685821657736338717
}

// randSched picks uniformly among the runnable CPUs at every scheduling
// point, counting its Pick calls.
type randSched struct {
	rng   xrng
	picks int
}

func (s *randSched) Pick(current *machine.CPU, runnable []*machine.CPU) *machine.CPU {
	s.picks++
	return runnable[int(s.rng.next()%uint64(len(runnable)))]
}

// --------------------------------------------------------------------------
// Reference interpreter.

type refLine struct {
	exclUntil int64
	owner     int
	sharers   uint8 // bitmask; at most 4 CPUs in fuzz programs
}

type refCPUState int

const (
	refRunning   refCPUState = iota
	refAfterSpin             // an await step just spun: one empty scheduling point is due before the next load
	refAfterWake             // woken from a sleep: the step that ends it is an empty scheduling point
)

type refCPU struct {
	id    int
	clock int64
	ops   []fuzzOp
	pc    int

	state    refCPUState
	awaiting bool
	attempts int
	poll     int

	stepping bool // inside an opSleep or opWake
	spins    int  // its spin steps left before it blocks or wakes
	blocked  bool // not runnable until another CPU wakes it

	// pending is the action to perform when this CPU next gets the floor:
	// it stopped at a scheduling point with the action not yet done.
	pending    bool
	pendingOp  fuzzOp
	pendingNil bool // the scheduling point carries no action (spin/await-gap)

	done                 bool
	reads, writes, cases int64
}

type refEngine struct {
	costs  machine.CostModel
	words  map[machine.Addr]uint64
	lines  map[int64]*refLine
	cpus   []*refCPU
	events []machine.Event

	// policy selects the next CPU; nil current means run start or a CPU
	// just finished. For the default engine it is minimum packed (time, ID);
	// for controlled runs it mirrors randSched draw-for-draw.
	policy func(current *refCPU, runnable []*refCPU) *refCPU
	picks  int

	blocks, wakes int64
	panicked      bool
	stuck         int // lowest CPU still blocked when no CPU can run; -1 = none
}

func newRefEngine(ncpu int, progs [][]fuzzOp) *refEngine {
	e := &refEngine{
		costs: fuzzCosts(),
		words: map[machine.Addr]uint64{},
		lines: map[int64]*refLine{},
		stuck: -1,
	}
	for i := 0; i < ncpu; i++ {
		e.cpus = append(e.cpus, &refCPU{id: i, ops: progs[i], poll: 1})
	}
	return e
}

func (e *refEngine) line(a machine.Addr) *refLine {
	idx := int64(a) >> 4 // LineWords = 16
	l := e.lines[idx]
	if l == nil {
		l = &refLine{owner: -1}
		e.lines[idx] = l
	}
	return l
}

func (e *refEngine) emit(c *refCPU, k machine.EventKind, a machine.Addr, aux uint64) {
	e.events = append(e.events, machine.Event{Time: c.clock, CPU: c.id, Kind: k, Addr: a, Aux: aux})
}

func (e *refEngine) accessRead(c *refCPU, a machine.Addr) uint64 {
	l := e.line(a)
	t0 := c.clock
	if l.exclUntil > t0 {
		t0 = l.exclUntil
	}
	cost := e.costs.L1Hit
	if l.owner != c.id && l.sharers&(1<<uint(c.id)) == 0 {
		cost = e.costs.ReadMiss
		l.sharers |= 1 << uint(c.id)
	}
	c.clock = t0 + cost
	c.reads++
	v := e.words[a]
	e.emit(c, machine.EvRead, a, v)
	return v
}

// accessWriteTiming charges the exclusive-acquisition cost of a store or
// CAS without moving data.
func (e *refEngine) accessWriteTiming(c *refCPU, a machine.Addr) {
	c.writes++ // AccessWrite counts CASes as writes too
	l := e.line(a)
	t0 := c.clock
	if l.exclUntil > t0 {
		t0 = l.exclUntil
	}
	if l.owner == c.id && l.sharers == 1<<uint(c.id) {
		c.clock = t0 + e.costs.WriteHit
		return
	}
	l.owner = c.id
	l.sharers = 1 << uint(c.id)
	l.exclUntil = t0 + e.costs.LineTransfer
	c.clock = t0 + e.costs.WriteMiss
}

// perform executes the action pending at c's current scheduling point.
func (e *refEngine) perform(c *refCPU) {
	if c.pendingNil {
		return
	}
	o := c.pendingOp
	switch o.kind {
	case opRead:
		e.accessRead(c, o.a)
		c.pc++
	case opWrite:
		e.accessWriteTiming(c, o.a)
		e.words[o.a] = o.v1
		e.emit(c, machine.EvWrite, o.a, o.v1)
		c.pc++
	case opCAS:
		e.accessWriteTiming(c, o.a)
		c.clock += e.costs.CAS
		c.cases++
		e.emit(c, machine.EvCAS, o.a, o.v2)
		if e.words[o.a] == o.v1 {
			e.words[o.a] = o.v2
		}
		c.pc++
	case opAwait:
		v := e.accessRead(c, o.a)
		c.attempts++
		if v != 0 || c.attempts >= o.n {
			c.awaiting = false
			c.pc++
			return
		}
		// The waiter spins before its next load: the clock advance is
		// private, but the spin ends in a scheduling point of its own,
		// then the next load opens with another one.
		c.clock += int64(c.poll) * e.costs.SpinIter
		if c.poll < awaitPollCap {
			c.poll *= 2
		}
		c.state = refAfterSpin
	case opSleep, opWake:
		if c.spins > 0 {
			c.spins--
			c.clock += e.costs.SpinIter
			return
		}
		if o.kind == opSleep {
			c.blocked = true
			e.blocks++
			return
		}
		// A woken CPU rejoins at the waker's clock, or at its own if that
		// is later; the span it slept is one idle event.
		c.stepping = false
		if b := e.cpus[o.n]; b.blocked {
			e.wakes++
			b.blocked = false
			if t := max(c.clock, b.clock); t > b.clock {
				idled := t - b.clock
				b.clock = t
				e.emit(b, machine.EvIdle, 0, uint64(idled))
			}
			b.state = refAfterWake
		}
		c.pc++
	}
}

// advance runs c up to its next scheduling point, applying private ops to
// its clock, and stages the pending action. It returns false when the body
// finished (or panicked), with no scheduling point to offer.
func (e *refEngine) advance(c *refCPU) bool {
	switch c.state {
	case refAfterSpin:
		// The empty scheduling point at the end of the await's spin.
		c.state = refRunning
		c.pending, c.pendingNil = true, true
		return true
	case refAfterWake:
		// The sleep's last step: a scheduling point that ends the op.
		c.state = refRunning
		c.stepping = false
		c.pc++
		c.pending, c.pendingNil = true, true
		return true
	}
	for c.pc < len(c.ops) {
		o := c.ops[c.pc]
		switch o.kind {
		case opWork:
			c.clock += int64(o.n) * e.costs.Work
			c.pc++
		case opFence:
			c.clock += e.costs.Fence
			c.pc++
		case opSpin:
			c.clock += int64(o.n) * e.costs.SpinIter
			c.pc++
			c.pending, c.pendingNil = true, true
			return true
		case opRead, opWrite, opCAS:
			c.pending, c.pendingNil, c.pendingOp = true, false, o
			return true
		case opSleep, opWake:
			if !c.stepping {
				c.stepping, c.spins = true, o.n
				if o.kind == opWake {
					c.spins = int(o.v1)
				}
			}
			c.pending, c.pendingNil, c.pendingOp = true, false, o
			return true
		case opAwait:
			if !c.awaiting {
				c.awaiting, c.attempts, c.poll = true, 0, 1
			}
			c.pending, c.pendingNil, c.pendingOp = true, false, o
			return true
		case opPanic:
			e.panicked = true
			return false
		}
	}
	return false
}

func (e *refEngine) runnable() []*refCPU {
	out := make([]*refCPU, 0, len(e.cpus))
	for _, c := range e.cpus {
		if !c.done && !c.blocked {
			out = append(out, c)
		}
	}
	return out
}

func (e *refEngine) pick(current *refCPU) *refCPU {
	r := e.runnable()
	if len(r) == 0 {
		return nil
	}
	e.picks++
	return e.policy(current, r)
}

// run interprets all programs to completion under the installed policy,
// mirroring the engine's control transfers: a CPU holds the floor from one
// scheduling point to the next; the policy is consulted at every point, at
// run start, and whenever a CPU finishes or blocks. A blocked CPU is not
// runnable; if one is left when no CPU can run, the run is stuck.
func (e *refEngine) run() {
	cur := e.pick(nil)
	for cur != nil {
		if cur.pending {
			cur.pending = false
			e.perform(cur)
		}
		if cur.blocked {
			cur = e.pick(nil)
			continue
		}
		if !e.advance(cur) {
			cur.done = true
			cur = e.pick(nil)
			continue
		}
		cur = e.pick(cur)
	}
	for _, c := range e.cpus {
		if c.blocked {
			e.stuck = c.id
			break
		}
	}
}

// minTimePolicy mirrors the default engine schedule: the runnable CPU with
// the smallest (virtual time, ID).
func minTimePolicy(_ *refCPU, runnable []*refCPU) *refCPU {
	best := runnable[0]
	for _, c := range runnable[1:] {
		if c.clock < best.clock || (c.clock == best.clock && c.id < best.id) {
			best = c
		}
	}
	return best
}

// --------------------------------------------------------------------------
// Differential check.

// checkEngineVsReference runs the programs on the real engine and the
// reference interpreter under one scheduling policy (schedSeed 0 = default
// minimum-time, otherwise a random controlled scheduler with that seed) and
// fails the test on any observable divergence.
func checkEngineVsReference(t *testing.T, ncpu int, progs [][]fuzzOp, schedSeed uint64) {
	t.Helper()

	m := machine.New(machine.Config{CPUs: ncpu, MemWords: 1 << 12, Seed: 7, Costs: fuzzCosts()})
	tr := &machine.LogTracer{}
	m.SetTracer(tr)
	var sched *randSched
	if schedSeed != 0 {
		sched = &randSched{rng: xrng(schedSeed)}
		m.SetScheduler(sched)
	}

	var elapsed int64
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		elapsed = m.Run(ncpu, func(c *machine.CPU) { runFuzzBody(c, progs[c.ID]) })
	}()

	ref := newRefEngine(ncpu, progs)
	if schedSeed == 0 {
		ref.policy = minTimePolicy
	} else {
		rng := xrng(schedSeed)
		ref.policy = func(_ *refCPU, runnable []*refCPU) *refCPU {
			return runnable[int(rng.next()%uint64(len(runnable)))]
		}
	}
	ref.run()

	switch {
	case ref.panicked:
		if recovered != errInjected {
			t.Fatalf("seed %d: reference panicked, engine recovered %v", schedSeed, recovered)
		}
	case ref.stuck >= 0:
		if want := fmt.Sprintf("machine: CPU %d still blocked at run end", ref.stuck); recovered != want {
			t.Fatalf("seed %d: reference stuck with CPU %d blocked, engine recovered %v", schedSeed, ref.stuck, recovered)
		}
	case recovered != nil:
		t.Fatalf("seed %d: engine panicked unexpectedly: %v", schedSeed, recovered)
	}
	if eng := m.EngineCounters(); eng.Blocks != ref.blocks || eng.Wakes != ref.wakes {
		t.Errorf("seed %d: engine blocked %d and woke %d times, reference %d and %d", schedSeed, eng.Blocks, eng.Wakes, ref.blocks, ref.wakes)
	}

	got, want := tr.Events, ref.events
	if len(got) != len(want) {
		t.Fatalf("seed %d: engine emitted %d events, reference %d\nengine: %v\nreference: %v",
			schedSeed, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("seed %d: event %d diverged: engine %+v, reference %+v", schedSeed, i, got[i], want[i])
		}
	}

	var maxClock int64
	for i, rc := range ref.cpus {
		c := m.CPU(i)
		if c.Now() != rc.clock {
			t.Errorf("seed %d: CPU %d final clock %d, reference %d", schedSeed, i, c.Now(), rc.clock)
		}
		if rc.clock > maxClock {
			maxClock = rc.clock
		}
		cnt := c.Counters
		if cnt.Reads != rc.reads || cnt.Writes != rc.writes || cnt.CASes != rc.cases {
			t.Errorf("seed %d: CPU %d counters (r%d w%d c%d), reference (r%d w%d c%d)",
				schedSeed, i, cnt.Reads, cnt.Writes, cnt.CASes, rc.reads, rc.writes, rc.cases)
		}
	}
	if !ref.panicked && ref.stuck < 0 && elapsed != maxClock {
		t.Errorf("seed %d: Run returned %d elapsed cycles, reference max clock %d", schedSeed, elapsed, maxClock)
	}
	for _, a := range fuzzAddrs {
		if m.Peek(a) != ref.words[a] {
			t.Errorf("seed %d: final mem[%d] = %d, reference %d", schedSeed, a, m.Peek(a), ref.words[a])
		}
	}
	if sched != nil && sched.picks != ref.picks {
		t.Errorf("seed %d: engine made %d scheduler picks, reference %d", schedSeed, sched.picks, ref.picks)
	}
}

// checkAllPolicies exercises one program set under the default schedule and
// two seeded random schedules.
func checkAllPolicies(t *testing.T, ncpu int, progs [][]fuzzOp) {
	t.Helper()
	for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15} {
		checkEngineVsReference(t, ncpu, progs, seed)
	}
}

// --------------------------------------------------------------------------
// Program generation from fuzz input.

type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *byteReader) more() bool { return r.pos < len(r.data) }

// parseFuzzPrograms decodes an arbitrary byte string into 2–4 small CPU
// programs; every input is valid. Ops are dealt round-robin so the threads'
// programs interleave whatever structure the fuzzer discovers. At most one
// body panic is generated per program set, keeping Run's re-raised error
// unambiguous. A wake names another CPU, so sleeps and wakes can pair up
// across the dealt programs; a sleep nothing wakes ends the run stuck.
func parseFuzzPrograms(data []byte) (ncpu int, progs [][]fuzzOp) {
	r := &byteReader{data: data}
	ncpu = 2 + int(r.next())%3
	progs = make([][]fuzzOp, ncpu)
	addrOf := func(b byte) machine.Addr { return fuzzAddrs[int(b)%len(fuzzAddrs)] }
	cpu, total, panicUsed := 0, 0, false
	for r.more() && total < 64 {
		sel := r.next()
		var o fuzzOp
		switch sel % 8 {
		case 0:
			o = fuzzOp{kind: opWork, n: 1 + int(sel>>4)}
		case 1:
			o = fuzzOp{kind: opFence}
		case 2:
			o = fuzzOp{kind: opRead, a: addrOf(r.next())}
		case 3:
			o = fuzzOp{kind: opWrite, a: addrOf(r.next()), v1: uint64(r.next()) % 4}
		case 4:
			o = fuzzOp{kind: opCAS, a: addrOf(r.next()), v1: uint64(r.next()) % 3, v2: 1 + uint64(r.next())%3}
		case 5:
			o = fuzzOp{kind: opAwait, a: addrOf(r.next()), n: 2 + int(sel>>4)%6}
		case 6:
			o = fuzzOp{kind: opSpin, n: 1 + int(sel>>4)}
		case 7:
			switch hi := int(sel >> 4); {
			case hi < 4:
				o = fuzzOp{kind: opSleep, n: hi}
			case hi < 8:
				o = fuzzOp{kind: opWake, n: (cpu + 1 + hi%(ncpu-1)) % ncpu, v1: uint64(r.next()) % 4}
			case !panicUsed:
				o = fuzzOp{kind: opPanic}
				panicUsed = true
			default:
				o = fuzzOp{kind: opWork, n: 1 + hi}
			}
		}
		progs[cpu] = append(progs[cpu], o)
		cpu = (cpu + 1) % ncpu
		total++
	}
	return ncpu, progs
}

// FuzzEngine generates random small programs and cross-checks the inline
// scheduler loop against the reference interpreter under the default and
// two seeded random schedules.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x02, 0x01, 0x03, 0x02, 0x00})                         // reads and writes on shared addrs
	f.Add([]byte{0x01, 0x25, 0x04, 0x13, 0x04, 0x01, 0x0c, 0x75, 0x04})       // awaits racing writes
	f.Add([]byte{0x02, 0x04, 0x01, 0x02, 0x0c, 0x04, 0x02, 0x01, 0x03, 0x14}) // CAS contention, same line
	f.Add([]byte{0x00, 0xf7, 0x55, 0x04, 0x03, 0x04, 0x02, 0x26, 0x10})       // body panic while a peer awaits
	f.Add([]byte{0x01, 0x46, 0x16, 0x00, 0x31, 0x26, 0x36, 0x04, 0x04, 0x04}) // spin-heavy interleavings
	f.Add([]byte{0x00, 0x17, 0x00, 0x00, 0x47, 0x02, 0x04})                   // a sleep, then its wake
	f.Add([]byte{0x01, 0x47, 0x37, 0x07, 0x57, 0x10, 0x47})                   // spun wakes before and after a sleep

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		ncpu, progs := parseFuzzPrograms(data)
		checkAllPolicies(t, ncpu, progs)
	})
}

// TestEngineMatchesReference pins the shapes the fuzzer must cover even if
// the corpus drifts: await/release handoff, CAS contention on one line,
// hot-line ping-pong, a body panic draining past a parked waiter, an
// await that exhausts its attempt budget, a sleep woken by a peer (from
// below and above its ID, inline and from an engine-stepped step), and a
// sleep nothing wakes.
func TestEngineMatchesReference(t *testing.T) {
	w := func(k fuzzOpKind, a machine.Addr, v1, v2 uint64, n int) fuzzOp {
		return fuzzOp{kind: k, a: a, v1: v1, v2: v2, n: n}
	}
	cases := []struct {
		name  string
		ncpu  int
		progs [][]fuzzOp
	}{
		{"await-release", 2, [][]fuzzOp{
			{w(opWork, 0, 0, 0, 20), w(opWrite, 256, 1, 0, 0)},
			{w(opAwait, 256, 0, 0, 6), w(opRead, 64, 0, 0, 0)},
		}},
		{"await-timeout", 2, [][]fuzzOp{
			{w(opRead, 512, 0, 0, 0)},
			{w(opAwait, 1024, 0, 0, 4), w(opWrite, 512, 3, 0, 0)},
		}},
		{"cas-contention", 3, [][]fuzzOp{
			{w(opCAS, 64, 0, 1, 0), w(opCAS, 64, 1, 2, 0)},
			{w(opCAS, 64, 0, 2, 0), w(opRead, 64, 0, 0, 0)},
			{w(opCAS, 64, 0, 3, 0), w(opWrite, 65, 1, 0, 0)},
		}},
		{"same-line-pingpong", 2, [][]fuzzOp{
			{w(opWrite, 64, 1, 0, 0), w(opRead, 65, 0, 0, 0), w(opWrite, 72, 2, 0, 0)},
			{w(opWrite, 65, 2, 0, 0), w(opRead, 72, 0, 0, 0), w(opWrite, 64, 3, 0, 0)},
		}},
		{"panic-drains-waiter", 3, [][]fuzzOp{
			{w(opWork, 0, 0, 0, 8), w(opPanic, 0, 0, 0, 0)},
			{w(opAwait, 2048, 0, 0, 5), w(opWrite, 80, 1, 0, 0)},
			{w(opSpin, 0, 0, 0, 12), w(opRead, 80, 0, 0, 0)},
		}},
		{"sleep-wake", 3, [][]fuzzOp{
			{w(opWork, 0, 0, 0, 30), w(opWake, 0, 0, 0, 1), w(opWrite, 64, 1, 0, 0), w(opWork, 0, 0, 0, 40), w(opRead, 65, 0, 0, 0)},
			{w(opSleep, 0, 0, 0, 2), w(opWrite, 65, 2, 0, 0)},
			{w(opWork, 0, 0, 0, 31), w(opWrite, 72, 3, 0, 0)},
		}},
		{"woken-below-waker", 2, [][]fuzzOp{
			{w(opSleep, 0, 0, 0, 0), w(opWrite, 64, 1, 0, 0)},
			{w(opWork, 0, 0, 0, 10), w(opWake, 0, 0, 0, 0), w(opWork, 0, 0, 0, 1), w(opWrite, 65, 2, 0, 0)},
		}},
		{"engine-stepped-wake", 3, [][]fuzzOp{
			{w(opSleep, 0, 0, 0, 0), w(opWrite, 64, 1, 0, 0)},
			{w(opWake, 0, 3, 0, 0), w(opWrite, 65, 2, 0, 0)},
			{w(opRead, 256, 0, 0, 0), w(opWork, 0, 0, 0, 30), w(opRead, 256, 0, 0, 0), w(opWork, 0, 0, 0, 30), w(opRead, 512, 0, 0, 0)},
		}},
		{"sleep-never-woken", 2, [][]fuzzOp{
			{w(opWake, 0, 0, 0, 1), w(opWrite, 64, 1, 0, 0)},
			{w(opWork, 0, 0, 0, 5), w(opSleep, 0, 0, 0, 1)},
		}},
		{"mixed-private-work", 4, [][]fuzzOp{
			{w(opWork, 0, 0, 0, 3), w(opFence, 0, 0, 0, 0), w(opWrite, 256, 2, 0, 0)},
			{w(opSpin, 0, 0, 0, 2), w(opAwait, 256, 0, 0, 7)},
			{w(opRead, 256, 0, 0, 0), w(opWork, 0, 0, 0, 50), w(opRead, 256, 0, 0, 0)},
			{w(opFence, 0, 0, 0, 0)},
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) { checkAllPolicies(t, tc.ncpu, tc.progs) })
	}
}
