// Package machine implements a deterministic discrete-event simulator of a
// shared-memory multiprocessor. It is the substrate on which the rest of
// this repository — a software POWER8-style HTM, the RW-LE lock-elision
// algorithm, the baseline locks, and the benchmark applications — executes.
//
// Each simulated hardware thread (CPU) runs as a resumable coroutine
// driven by one inline scheduler loop on the caller's goroutine (Run).
// Exactly one CPU executes at any moment: when a CPU's virtual clock
// passes another runnable CPU's, it parks itself and the loop resumes the
// CPU with the smallest (time, ID). A park/resume is a direct coroutine
// switch (iter.Pull), not a channel handoff through the runtime scheduler,
// which is what makes the simulator's innermost loop cheap. All shared
// simulator state is mutated from whichever coroutine holds the floor, so
// every run is race-free and bit-for-bit reproducible from its seed,
// regardless of how many physical cores the host has.
//
// The simulator models the parts of the memory system that synchronization
// performance depends on:
//
//   - a flat, word-addressed memory with a line-granular coherence timing
//     model (hit/miss costs, exclusive-line transfer reservations that
//     serialize hot-line ping-pong);
//   - an optional virtual-memory model (per-CPU TLBs, demand paging with a
//     residency limit and CLOCK eviction, timer interrupts) whose faults
//     and interrupts abort hardware transactions, as on real hardware;
//   - a simple dynamic allocator over the simulated memory.
package machine

import (
	"fmt"
	"sync"
)

// Addr is a word address in simulated memory. Words are 64 bits wide.
// Address 0 is reserved as the nil address.
type Addr int64

// MaxCPUs is the maximum number of simulated hardware threads.
const MaxCPUs = 256

// PagingConfig configures the simulated virtual-memory subsystem.
type PagingConfig struct {
	// Enabled turns on TLB/paging simulation. When false, memory accesses
	// pay only coherence costs.
	Enabled bool
	// PageWords is the page size in words (default 512 = 4 KiB).
	PageWords int64
	// ResidentLimit caps the number of simultaneously resident pages;
	// 0 means unlimited (no page-fault thrashing).
	ResidentLimit int64
	// TLBEntries is the number of per-CPU direct-mapped TLB entries
	// (default 128).
	TLBEntries int
	// InterruptMean, when non-zero, delivers a timer interrupt to each CPU
	// on average every InterruptMean cycles. Interrupts abort in-flight
	// hardware transactions (via the CPU's OnInterrupt hook).
	InterruptMean int64
}

// Config configures a simulated machine.
type Config struct {
	// CPUs is the number of simulated hardware threads (1..MaxCPUs).
	CPUs int
	// MemWords is the size of simulated memory in 64-bit words.
	MemWords int64
	// LineWords is the cache-line size in words (default 16 = 128 B,
	// matching POWER8).
	LineWords int64
	// Seed seeds all per-CPU random streams.
	Seed uint64
	// Costs is the virtual-cycle cost model; zero value means DefaultCosts.
	Costs CostModel
	// Paging configures the VM subsystem.
	Paging PagingConfig
	// Deadline aborts the simulation (panic) if any CPU's virtual clock
	// exceeds it; it catches livelocks. 0 means 1e14 cycles.
	Deadline int64
}

func (cfg *Config) applyDefaults() {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	if cfg.CPUs > MaxCPUs {
		panic(fmt.Sprintf("machine: %d CPUs exceeds MaxCPUs=%d", cfg.CPUs, MaxCPUs))
	}
	if cfg.MemWords <= 0 {
		cfg.MemWords = 1 << 20
	}
	if cfg.LineWords == 0 {
		cfg.LineWords = 16
	}
	if cfg.LineWords&(cfg.LineWords-1) != 0 {
		panic("machine: LineWords must be a power of two")
	}
	if cfg.Costs == (CostModel{}) {
		cfg.Costs = DefaultCosts()
	}
	if cfg.Paging.PageWords == 0 {
		cfg.Paging.PageWords = 512
	}
	if cfg.Paging.TLBEntries == 0 {
		cfg.Paging.TLBEntries = 128
	}
	if cfg.Deadline == 0 {
		cfg.Deadline = 1e14
	}
}

// Machine is a simulated shared-memory multiprocessor.
type Machine struct {
	Cfg       Config
	words     []uint64
	lines     []uint64 // per-line records, recWords each (see line.go)
	mem       *mapping // the mapping words and lines come from; nil when from make
	recWords  int64
	bitWords  int64 // width of each record bitmap: ceil(CPUs/64)
	cpus      []*CPU
	heap      cpuHeap
	pager     pager
	alloc     arena
	baseTime  int64
	lineShift uint

	tracer Tracer
	sched  Scheduler

	schedScratch []*CPU

	// next is the successor chosen by the parking CPU's Sync, read by the
	// scheduler loop right after the park returns control to it.
	next *CPU

	// eng counts the engine's own work for the current Run (see
	// EngineCounters).
	eng EngineCounters

	runErr any
	// runOnce rejects concurrent host callers of Run on one machine.
	runOnce sync.Mutex
}

// New creates a machine with the given configuration.
//
// Simulated memory and the line records start zero. When they span at
// least one huge page they share one anonymous mapping (mapMemory), which
// the kernel zero-fills page by page on first touch, so a machine pays
// only for the memory its run touches; otherwise they come from make.
//
// Lifetime: the mapping goes to the next machine at Release, and is
// unmapped once a Machine that was never released is unreachable. So no
// slice of words or lines — a CPUSet included — may outlive Release or
// its Machine: hold the Machine (or a CPU, which points to it) for as
// long as the slice, and release it only after the last use.
func New(cfg Config) *Machine {
	cfg.applyDefaults()
	m := &Machine{Cfg: cfg}
	for s := int64(1); s < cfg.LineWords; s <<= 1 {
		m.lineShift++
	}
	nLines := (cfg.MemWords + cfg.LineWords - 1) >> m.lineShift
	m.bitWords = int64(cfg.CPUs+63) / 64
	m.recWords = recBits + 2*m.bitWords
	words, recs := cfg.MemWords, nLines*m.recWords
	if mem := mapMemory(m, words+recs); mem != nil {
		m.words, m.lines = mem[:words:words], mem[words:]
	} else {
		m.words, m.lines = make([]uint64, words), make([]uint64, recs)
	}
	m.pager.init(cfg)
	m.alloc.init(cfg.MemWords, cfg.LineWords)
	m.cpus = make([]*CPU, cfg.CPUs)
	for i := range m.cpus {
		m.cpus[i] = newCPU(m, i)
	}
	return m
}

// Release ends the machine's simulated memory early. It first checks the
// allocator contract (see arena): a nonzero word past the bump pointer is
// a write outside every allocated block, and panics, leaving the machine
// as it was. A mapped block is then cleared where it is resident and
// handed to the next New (see mapMemory); a block from make is left to the
// collector. After Release, words and lines are nil, so a late Peek, Poke
// or simulated access panics instead of reading another machine's memory.
// Host-side state stays readable: Cfg, the CPUs and their counters, and
// EngineCounters. Releasing twice is harmless. A machine that is never
// released keeps its memory until it is unreachable.
func (m *Machine) Release() {
	heap := m.HeapUsed()
	if m.mem != nil {
		m.mem.release(int64(len(m.words)+len(m.lines)), int64(len(m.words)), heap)
	} else {
		checkUnallocated(m.words, heap, int64(len(m.words)))
	}
	m.words, m.lines, m.mem = nil, nil, nil
}

// checkUnallocated panics unless words[from:to], all past the bump
// pointer, read zero.
func checkUnallocated(words []uint64, from, to int64) {
	for a := from; a < to; a++ {
		if words[a] != 0 {
			panic(fmt.Sprintf("machine: word %d past the bump pointer reads %#x: a write outside every allocated block", a, words[a]))
		}
	}
}

// LineOf returns the cache-line index of address a.
func (m *Machine) LineOf(a Addr) int64 { return int64(a) >> m.lineShift }

// Peek reads a word of simulated memory without charging time. It must only
// be called by the token-holding CPU or outside Run.
func (m *Machine) Peek(a Addr) uint64 { return m.words[a] }

// Poke writes a word of simulated memory without charging time. It must
// only be called by the token-holding CPU or outside Run.
func (m *Machine) Poke(a Addr, v uint64) { m.words[a] = v }

// CPU returns the simulated CPU with the given ID.
func (m *Machine) CPU(id int) *CPU { return m.cpus[id] }

// Now returns the current global virtual time (the maximum over all CPUs).
func (m *Machine) Now() int64 {
	t := m.baseTime
	for _, c := range m.cpus {
		if c.now > t {
			t = c.now
		}
	}
	return t
}

// Run executes body on CPUs 0..threads-1 concurrently in virtual time and
// returns the elapsed virtual cycles (the time at which the last CPU
// finished, minus the start time). Virtual time is monotonic across
// successive Runs on the same machine.
//
// Run is the inline scheduler loop: it resumes one CPU coroutine at a
// time, always the scheduler's choice (minimum (time, ID) by default, the
// controlled Scheduler's pick otherwise). A resumed CPU executes until its
// Sync parks it — having first recorded its successor in m.next — or until
// its body returns or panics. A body panic is captured at the coroutine
// root (see spawn), recorded in runErr, and re-raised here once the
// remaining CPUs have run to completion, exactly as the previous
// goroutine-per-CPU engine behaved.
func (m *Machine) Run(threads int, body func(*CPU)) int64 {
	if threads <= 0 || threads > len(m.cpus) {
		panic(fmt.Sprintf("machine: Run with %d threads (have %d CPUs)", threads, len(m.cpus)))
	}
	m.runOnce.Lock()
	defer m.runOnce.Unlock()

	base := m.Now()
	m.baseTime = base
	m.heap = cpuHeap{}
	m.eng = EngineCounters{}
	m.runErr = nil

	active := m.cpus[:threads]
	for _, c := range active {
		c.beginRun(base)
		m.heap.push(c)
		c.spawn(body)
	}
	// Release still-parked coroutines if the loop exits abnormally (e.g. a
	// controlled scheduler violating its contract); on a normal exit every
	// coroutine has already finished and release is a no-op.
	defer func() {
		for _, c := range active {
			c.release()
		}
	}()

	cur := m.pickNext(nil)
	for cur != nil {
		if cur.waiter != nil {
			// An engine-stepped wait: run one step in place of a resume.
			// Only when the wait completes (or its step panicked, with
			// the panic stashed for Await to re-raise) does the CPU's
			// coroutine get the floor back.
			if !m.stepWaiter(cur) {
				cur = m.pickNext(nil)
				continue
			}
		}
		if m.sched == nil {
			m.refreshWake(cur)
		}
		if _, parked := cur.resume(); parked {
			// cur parked in Sync after choosing its successor.
			cur = m.next
		} else {
			// cur's body returned or panicked (spawn's seq-root recover
			// turns body panics into normal coroutine exits after
			// recording runErr): retire it and pick fresh.
			if cur.heapIdx >= 0 {
				m.heap.remove(cur)
			}
			cur = m.pickNext(nil)
		}
	}
	if m.runErr != nil {
		panic(m.runErr)
	}
	for _, c := range active {
		if c.blocked {
			panic(fmt.Sprintf("machine: CPU %d still blocked at run end", c.ID))
		}
	}
	end := m.Now()
	return end - base
}

// EngineCounters is the scheduler's own work during one Run: what it cost
// the host to keep the CPUs in virtual-time order, as opposed to what the
// simulated program did. Like sim_cycles, every count is a pure function
// of the configuration and seed, so the counts can be pinned exactly.
type EngineCounters struct {
	Parks       int64 // coroutine parks: a CPU handing the floor back to the loop
	WaiterSteps int64 // Waiter steps the engine ran for a parked CPU, with no switch
	InlineSteps int64 // Waiter steps Await ran on the waiting CPU's own stack
	SyncSlow    int64 // Sync calls that missed the inlined fast path
	Blocks      int64 // CPU.Block calls: a waiting CPU leaving the heap
	Wakes       int64 // CPU.Wake calls: a blocked CPU rejoining it
}

// EngineCounters returns the engine counters of the most recent Run (of
// the current one, when called from inside it).
func (m *Machine) EngineCounters() EngineCounters { return m.eng }

// stepWaiter advances c's engine-stepped wait by one step and reports
// whether the wait is over; when it is not, c is back in scheduling
// order, or off the heap if the step blocked it. It owns the two pieces
// of bookkeeping a step cannot do for itself: the livelock deadline check
// (a waiting CPU's Syncs are disabled, so syncSlow never sees it) and the
// re-routing of a panic raised inside a step — both are stashed in
// c.stepErr and re-raised by Await on the waiting CPU's own stack, exactly
// where the open-coded loop would have raised them.
//
//simlint:allow abortflow the recover re-routes a step's panic — including an HTM abort unwinding a doomed transaction — onto the waiting CPU's coroutine, where Await re-panics it verbatim for htm.Thread.Try to consume
func (m *Machine) stepWaiter(c *CPU) (done bool) {
	if c.now > m.Cfg.Deadline {
		c.waiter = nil
		c.stepErr = fmt.Sprintf("machine: CPU %d exceeded virtual deadline (%d cycles): livelock?", c.ID, m.Cfg.Deadline)
		return true
	}
	defer func() {
		if r := recover(); r != nil {
			c.waiter = nil
			c.stepErr = r
			done = true
		}
	}()
	m.eng.WaiterSteps++
	if c.waiter.Step(c) {
		c.waiter = nil
		return true
	}
	if c.blocked {
		m.heap.remove(c)
	} else {
		m.heap.fix(c)
	}
	return false
}

// refreshWake recomputes the wake threshold of next, the CPU about to be
// resumed: the smallest packed (virtual time, ID) key among all *other*
// runnable CPUs. While next runs, every other runnable CPU is parked in
// its coroutine with a frozen clock, so the threshold stays valid until
// the next resume, or until next wakes a CPU (Wake lowers it). Sync
// compares against it to answer "am I still the minimum?" with a single
// comparison instead of a heap fix + pick. Under the default scheduler
// next is the heap root, so the minimum among the others is the smaller
// of the root's two children. If the step that just ended next's wait
// woke a CPU due before it, that CPU is the root and next is in one of
// the children's subtrees, so the threshold is at most next's own key and
// next's first Sync takes the slow path to it.
func (m *Machine) refreshWake(next *CPU) {
	h := &m.heap
	if len(h.cpus) <= 1 {
		// No other runnable CPU: next keeps the floor until it finishes.
		// Clamp the threshold to just past the deadline so a runaway body
		// still falls off the fast path and into syncSlow's livelock check
		// (parked CPUs always have clocks within the deadline — their own
		// Sync checked it before parking — so multi-CPU thresholds never
		// need the clamp).
		next.wake = (m.Cfg.Deadline + 1) << clockIDBits
		return
	}
	best := h.cpus[1]
	if len(h.cpus) > 2 && h.less(2, 1) {
		best = h.cpus[2]
	}
	next.wake = best.now<<clockIDBits | best.idKey
}
