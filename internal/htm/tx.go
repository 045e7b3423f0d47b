package htm

import (
	"math/bits"

	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// Begin starts a transaction. rot selects a rollback-only transaction.
// Begin never fails in this model (hardware tbegin reports failures of
// *prior* attempts through the handler; here failures surface at the first
// conflicting access or at commit).
//
//simlint:hotpath
func (t *Thread) Begin(rot bool) {
	if t.mode != ModeNone {
		panic("htm: nested Begin (nesting is not modelled; flatten in the caller)")
	}
	costs := t.C.Costs()
	if rot {
		t.C.Tick(costs.ROTBegin)
		t.mode = ModeROT
	} else {
		t.C.Tick(costs.TxBegin)
		t.mode = ModeHTM
	}
	t.doom = -1
	t.suspended = false
	t.St.TxStarts++
	rotFlag := uint64(0)
	if rot {
		rotFlag = 1
	}
	t.C.Emit(machine.EvTxBegin, 0, rotFlag)
}

// Suspend enters suspended mode (POWER8 tsuspend): subsequent accesses are
// non-transactional, and conflicts against the transaction's footprint are
// deferred to Resume.
func (t *Thread) Suspend() {
	t.mustBeActive("Suspend")
	t.C.Tick(t.C.Costs().Suspend)
	t.suspended = true
	t.C.Emit(machine.EvTxSuspend, 0, 0)
}

// Resume leaves suspended mode (POWER8 tresume). If the transaction was
// doomed while suspended, the abort fires here.
func (t *Thread) Resume() {
	if t.mode == ModeNone || !t.suspended {
		panic("htm: Resume without suspended transaction")
	}
	t.C.Tick(t.C.Costs().Resume)
	// Order every earlier-timestamped access by other CPUs before the
	// resume point so deferred conflicts are observed here.
	t.C.Sync()
	t.suspended = false
	t.C.Emit(machine.EvTxResume, 0, 0)
	if t.sys.Cfg.UnsafeLoseDoomAtResume {
		// Checker-validation mutation: forget conflicts that arrived
		// during suspension (see Config.UnsafeLoseDoomAtResume).
		t.doom = -1
		t.doomPers = false
	}
	t.checkDoom()
}

// Commit attempts to commit the transaction, publishing all buffered
// stores atomically (aggregate store appearance — guaranteed for regular
// transactions and, as the paper verified empirically for POWER8 chips,
// provided for ROTs as well). On a pending conflict the abort fires
// instead.
//
//simlint:hotpath
func (t *Thread) Commit() {
	t.mustBeActive("Commit")
	costs := t.C.Costs()
	if t.mode == ModeROT {
		t.C.Tick(costs.ROTCommit)
	} else {
		t.C.Tick(costs.TxCommit)
	}
	// Publication must happen at a scheduling boundary so it is atomic in
	// virtual time with respect to every other CPU.
	t.C.Sync()
	t.checkDoom()
	m := t.C.Machine()
	for _, a := range t.ws.order {
		v, _ := t.ws.get(a)
		m.Poke(a, v)
	}
	t.C.Emit(machine.EvTxCommit, 0, uint64(len(t.ws.order)))
	t.rollback() // reuses the deregistration path; state is now committed
}

// Abort explicitly aborts the transaction with the given cause (TX_ABORT).
func (t *Thread) Abort(cause stats.AbortCause) {
	t.mustBeActive("Abort")
	t.abort(cause, false)
}

// Try runs fn inside a transaction and commits it when fn returns. It
// returns the outcome; on abort, all speculative effects have been
// discarded. fn may call Suspend/Resume and Abort. This is the software
// analogue of the tbegin failure-handler idiom.
func (t *Thread) Try(rot bool, fn func()) (status Status) {
	t.Begin(rot)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		sig, ok := r.(*abortSignal)
		if !ok {
			if t.mode != ModeNone {
				t.rollback()
			}
			panic(r)
		}
		status = Status{OK: false, Cause: sig.cause, Persistent: sig.persistent}
	}()
	fn()
	t.Commit()
	return Status{OK: true}
}

// Load reads word a with semantics determined by the thread's mode:
// tracked transactional read (HTM), untracked read (ROT or suspended), or
// plain non-transactional read. Any speculative writer of the line other
// than t is doomed (requester wins), which is how an uninstrumented RW-LE
// reader kills a conflicting writer.
//
//simlint:hotpath
func (t *Thread) Load(a machine.Addr) uint64 {
	t.C.AccessRead(a)
	v := t.loadData(a)
	if t.sys.traceAccesses {
		t.C.Emit(machine.EvRead, a, v)
	}
	return v
}

// LoadStream reads word a like Load but with streaming-scan timing
// (memory-level parallelism discount; see machine.AccessReadStream). Use it
// only for sweeps over independent addresses — e.g. the quiescence scan of
// per-thread reader clocks — never for pointer chasing.
//
//simlint:hotpath
func (t *Thread) LoadStream(a machine.Addr) uint64 {
	t.C.AccessReadStream(a)
	v := t.loadData(a)
	if t.sys.traceAccesses {
		t.C.Emit(machine.EvRead, a, v)
	}
	return v
}

// loadData performs the conflict-directory and data part of a load, after
// the timing has been charged.
//
//simlint:hotpath
func (t *Thread) loadData(a machine.Addr) uint64 {
	m, id := t.C.Machine(), t.C.ID
	line := m.LineOf(a)

	if t.mode == ModeNone || t.suspended {
		if w := m.SpecWriter(line); w >= 0 && w != id {
			t.sys.threads[w].setDoom(false, id, a)
		}
		// Suspended loads do not observe the transaction's own
		// speculative stores (POWER8: transactional state is not
		// accessed in suspended mode).
		return m.Peek(a)
	}

	t.checkDoom()
	w := m.SpecWriter(line)
	if w == id {
		if v, ok := t.ws.get(a); ok {
			return v
		}
		return m.Peek(a)
	}
	if w >= 0 {
		t.sys.threads[w].setDoom(true, id, a)
	}
	if t.mode != ModeHTM {
		return m.Peek(a)
	}
	if r := m.SpecReaders(line); !r.Has(id) {
		if len(t.readLines) >= t.sys.Cfg.ReadCapLines {
			t.abort(stats.AbortCapacity, true)
		}
		r.Add(id)
		t.readLines = append(t.readLines, line)
	}
	return m.Peek(a)
}

// Store writes word a. Inside a transaction (HTM or ROT) the store is
// buffered and the line is claimed in the directory, dooming any other
// speculating reader or writer of the line. While suspended or outside a
// transaction the store is non-transactional: it dooms every transaction
// speculating on the line and hits memory directly.
//
//simlint:hotpath
func (t *Thread) Store(a machine.Addr, v uint64) {
	t.C.AccessWrite(a)
	m, id := t.C.Machine(), t.C.ID
	line := m.LineOf(a)

	if t.mode == ModeNone || t.suspended {
		t.doomAllNonTx(line, a)
		m.Poke(a, v)
		if t.sys.traceAccesses {
			t.C.Emit(machine.EvWrite, a, v)
		}
		return
	}

	t.checkDoom()
	w := m.SpecWriter(line)
	if w >= 0 && w != id {
		t.sys.threads[w].setDoom(true, id, a)
	}
	if r := m.SpecReaders(line); r.AnyExcept(id) {
		t.doomReaders(r, true, a)
	}
	if w != id {
		capacity := t.sys.Cfg.WriteCapLines
		if len(t.writeLines) >= capacity {
			if t.mode == ModeROT {
				t.abort(stats.AbortROTCapacity, true)
			}
			t.abort(stats.AbortCapacity, true)
		}
		m.SetSpecWriter(line, id)
		t.writeLines = append(t.writeLines, line)
	}
	t.ws.put(a, v)
	if t.sys.traceAccesses {
		t.C.Emit(machine.EvWrite, a, v)
	}
}

// CAS performs a non-transactional compare-and-swap (usable only outside
// speculation or while suspended), dooming every transaction speculating
// on the line — this is what makes lock acquisition in a fallback path
// abort subscribed transactions.
//
//simlint:hotpath
func (t *Thread) CAS(a machine.Addr, old, new uint64) bool {
	if t.mode != ModeNone && !t.suspended {
		panic("htm: CAS inside active transaction (use Load+Store)")
	}
	ok := t.C.CAS(a, old, new)
	t.doomAllNonTx(t.C.Machine().LineOf(a), a)
	return ok
}

// Alloc allocates n words of simulated memory. Allocator bookkeeping is
// host-side and NOT speculative: never allocate inside a transactional
// critical section body (aborts would leak or double-use the block) —
// prepare blocks before entering and release them after committing.
//
// While per-access tracing is on, allocation and release emit
// EvAlloc/EvFree so the race sanitizer can model the allocator's internal
// synchronization: a thread recycling a block and the thread that next
// allocates it are ordered through the free list even though they share no
// lock word.
func (t *Thread) Alloc(n int64) machine.Addr {
	a := t.C.Alloc(n)
	if t.sys.traceAccesses {
		t.C.Emit(machine.EvAlloc, a, uint64(n))
	}
	return a
}

// AllocAligned allocates n words on a cache-line boundary. See Alloc for
// the speculation caveat.
func (t *Thread) AllocAligned(n int64) machine.Addr {
	a := t.C.AllocAligned(n)
	if t.sys.traceAccesses {
		t.C.Emit(machine.EvAlloc, a, uint64(n))
	}
	return a
}

// Free releases a block from Alloc. See Alloc for the speculation caveat.
func (t *Thread) Free(a machine.Addr, n int64) {
	if t.sys.traceAccesses {
		t.C.Emit(machine.EvFree, a, uint64(n))
	}
	t.C.Free(a, n)
}

// FreeAligned releases a block from AllocAligned. See Alloc for the
// speculation caveat.
func (t *Thread) FreeAligned(a machine.Addr, n int64) {
	if t.sys.traceAccesses {
		t.C.Emit(machine.EvFree, a, uint64(n))
	}
	t.C.FreeAligned(a, n)
}

// doomAllNonTx dooms the writer and all readers of line due to a
// non-transactional access by t at address a.
func (t *Thread) doomAllNonTx(line int64, a machine.Addr) {
	m, id := t.C.Machine(), t.C.ID
	if w := m.SpecWriter(line); w >= 0 && w != id {
		t.sys.threads[w].setDoom(false, id, a)
	}
	if r := m.SpecReaders(line); r.AnyExcept(id) {
		t.doomReaders(r, false, a)
	}
}

// doomReaders dooms every speculative reader in readers except t, in CPU
// order, walking as many bitmap words as the machine's records carry.
func (t *Thread) doomReaders(readers machine.CPUSet, sourceTx bool, a machine.Addr) {
	for w, mask := range readers {
		for mask != 0 {
			id := w<<6 + bits.TrailingZeros64(mask)
			mask &= mask - 1
			if id == t.C.ID {
				continue
			}
			t.sys.threads[id].setDoom(sourceTx, t.C.ID, a)
		}
	}
}
