// Package htm implements a software model of POWER8 best-effort hardware
// transactional memory on top of the machine simulator, including the two
// micro-architectural features RW-LE depends on:
//
//   - rollback-only transactions (ROTs), which track stores but not loads —
//     no read-set capacity aborts, no read-conflict aborts, and an
//     aggregate (atomic) store appearance at commit;
//   - suspend/resume, which lets a transaction execute non-transactional
//     accesses in the middle of speculation; conflicts arriving while
//     suspended doom the transaction and the abort materializes at resume.
//
// Conflict detection is eager, requester-wins, at cache-line granularity,
// mirroring a coherence-protocol implementation: the thread performing an
// access aborts whichever speculating transaction holds the line in an
// incompatible state. Non-transactional reads are invisible to the
// directory — exactly the property that forces RW-LE's quiescence scheme.
//
// Transactions abort by panicking with an internal signal that Try
// recovers, mimicking hardware's control transfer to the tbegin failure
// handler.
package htm

import (
	"fmt"

	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// Mode is a thread's speculation state.
type Mode int

const (
	// ModeNone: not speculating; accesses are non-transactional.
	ModeNone Mode = iota
	// ModeHTM: inside a regular transaction (loads and stores tracked).
	ModeHTM
	// ModeROT: inside a rollback-only transaction (only stores tracked).
	ModeROT
)

// Status is the outcome of a transaction attempt, the software analogue of
// the POWER8 TEXASR failure code.
type Status struct {
	// OK reports whether the transaction committed.
	OK bool
	// Cause classifies the abort when !OK.
	Cause stats.AbortCause
	// Persistent reports whether retrying the same path is futile
	// (capacity and explicit-persistent aborts).
	Persistent bool
}

// abortSignal is the panic payload used to unwind to Try on abort.
type abortSignal struct {
	cause      stats.AbortCause
	persistent bool
}

// IsAbortSignal reports whether a recovered panic value is the HTM abort
// signal. A recover() on any path that can run inside a transaction must
// use this (or an equivalent type assertion) to classify what it caught
// and re-panic the abort signal rather than swallow it: the signal is how
// speculative execution unwinds to Try, and it carries a pooled payload
// that must not be retained past the handler. The simlint abortflow
// analyzer enforces this discipline.
func IsAbortSignal(r any) bool {
	_, ok := r.(*abortSignal)
	return ok
}

// Config holds the HTM capacity budget.
type Config struct {
	// ReadCapLines is the read-set budget in cache lines (default 64,
	// i.e. 8 KiB of 128 B lines — the POWER8 budget).
	ReadCapLines int
	// WriteCapLines is the write-set budget in cache lines (default 64).
	WriteCapLines int
	// UnsafeLoseDoomAtResume is a checker-validation knob: it models
	// defective hardware that discards conflicts recorded while the
	// transaction was suspended instead of materializing them at resume.
	// RW-LE's safety argument (paper §3, Fig. 2) depends on exactly those
	// dooms, so internal/check must find a violation with this set. Never
	// enable it outside checker self-tests.
	UnsafeLoseDoomAtResume bool
}

func (c *Config) applyDefaults() {
	if c.ReadCapLines == 0 {
		c.ReadCapLines = 64
	}
	if c.WriteCapLines == 0 {
		c.WriteCapLines = 64
	}
}

// System is an HTM-capable simulated machine: the machine plus one Thread
// per CPU. The conflict directory — each line's speculative writer and
// speculative-reader bitmap — lives in the machine's per-line records
// (Machine.SpecWriter, SpecReaders), so a machine carries at most one
// System.
type System struct {
	M       *machine.Machine
	Cfg     Config
	threads []*Thread

	// traceAccesses gates EvRead/EvWrite emission from Thread.Load,
	// LoadStream and Store. Default event streams deliberately omit
	// HTM-level data accesses (they would dominate every trace and golden
	// fingerprint); the simsan race sanitizer needs them, so it flips this
	// on for sanitized runs only. Emission charges no virtual time, so
	// sim_cycles are identical either way.
	traceAccesses bool
}

// NewSystem wraps a machine with HTM support.
func NewSystem(m *machine.Machine, cfg Config) *System {
	cfg.applyDefaults()
	s := &System{M: m, Cfg: cfg}
	s.threads = make([]*Thread, m.Cfg.CPUs)
	for i := range s.threads {
		s.threads[i] = newThread(s, m.CPU(i))
	}
	return s
}

// Thread returns the HTM thread bound to CPU id.
func (s *System) Thread(id int) *Thread { return s.threads[id] }

// SetTraceAccesses enables (or disables) EvRead/EvWrite emission from
// Thread.Load/LoadStream/Store, so a tracer sees every HTM-level data
// access. Off by default: the extra events change no timing but would
// change every recorded event stream, so only sanitized runs enable it.
func (s *System) SetTraceAccesses(on bool) { s.traceAccesses = on }

// Threads returns all HTM threads.
func (s *System) Threads() []*Thread { return s.threads }

// Stats returns the per-thread stat collectors for the first n threads.
func (s *System) Stats(n int) []*stats.Thread {
	out := make([]*stats.Thread, n)
	for i := 0; i < n; i++ {
		out[i] = &s.threads[i].St
	}
	return out
}

// Thread is one hardware thread's HTM context.
type Thread struct {
	C  *machine.CPU
	St stats.Thread

	sys        *System
	mode       Mode
	suspended  bool
	doom       stats.AbortCause // pending abort cause; -1 when clean
	doomPers   bool
	doomKiller int          // CPU whose access doomed us; -1 = environment/none
	doomAddr   machine.Addr // address of the dooming access; 0 when unknown

	readLines  []int64
	writeLines []int64
	ws         writeSet

	// sig is the reusable panic payload for abort; aborting with a pointer
	// to it avoids boxing an interface value on every abort.
	sig abortSignal

	// ww and tas are the reusable engine-stepped waiters of wait.go; a
	// thread runs at most one wait at a time, so one of each suffices and
	// installing them in the machine never allocates.
	ww  wordWait
	tas tatasWait
}

func newThread(s *System, c *machine.CPU) *Thread {
	t := &Thread{C: c, sys: s, doom: -1, doomKiller: -1}
	t.ws.init()
	// Interrupts and page faults discard speculative state on real
	// hardware; model both as a non-transactional doom.
	c.OnInterrupt = t.doomFromEnvironment
	c.OnPageFault = t.doomFromEnvironment
	return t
}

// doomFromEnvironment dooms the in-flight transaction because of a
// VM-subsystem event (page fault or timer interrupt).
func (t *Thread) doomFromEnvironment() {
	if t.mode == ModeNone {
		return
	}
	t.setDoom(false, -1, 0)
}

// setDoom records a pending conflict abort. sourceTx tells whether the
// conflicting access came from inside another transaction; killer is the
// CPU that performed it (-1 for VM-subsystem dooms) and a its address, both
// preserved so the eventual abort can be attributed.
//
//simlint:hotpath
func (t *Thread) setDoom(sourceTx bool, killer int, a machine.Addr) {
	if t.doom >= 0 {
		return
	}
	switch {
	case t.mode == ModeROT:
		t.doom = stats.AbortROTConflict
	case sourceTx:
		t.doom = stats.AbortConflictTx
	default:
		t.doom = stats.AbortConflictNonTx
	}
	t.doomPers = false
	t.doomKiller = killer
	t.doomAddr = a
	t.C.Emit(machine.EvTxDoom, a, PackAbortAux(t.doom, killer))
}

// PackAbortAux encodes the Aux payload of EvTxDoom/EvTxAbort events: the
// abort cause in the low byte and the aggressor CPU (+1, so 0 means "none":
// capacity, explicit and VM-subsystem aborts have no killer) in the next.
func PackAbortAux(cause stats.AbortCause, killer int) uint64 {
	return uint64(cause)&0xff | uint64(killer+1)<<8
}

// UnpackAbortAux decodes an Aux payload produced by PackAbortAux; killer is
// -1 when the abort had no aggressor CPU.
func UnpackAbortAux(aux uint64) (cause stats.AbortCause, killer int) {
	return stats.AbortCause(aux & 0xff), int(aux>>8&0xff) - 1
}

// Mode returns the thread's current speculation mode.
func (t *Thread) Mode() Mode { return t.mode }

// Suspended reports whether the thread is inside a suspended transaction.
func (t *Thread) Suspended() bool { return t.suspended }

// InTx reports whether the thread is speculating (suspended or not).
func (t *Thread) InTx() bool { return t.mode != ModeNone }

// Doomed reports whether the in-flight transaction has a pending abort.
// It models the POWER8 tcheck instruction, usable while suspended. It
// synchronizes with the scheduler so that every conflict with an earlier
// virtual timestamp is visible.
func (t *Thread) Doomed() bool {
	t.C.Sync()
	return t.doom >= 0
}

func (t *Thread) checkDoom() {
	if t.doom >= 0 {
		t.abort(t.doom, t.doomPers)
	}
}

// abort rolls back the current transaction and unwinds to Try.
//
//simlint:hotpath
func (t *Thread) abort(cause stats.AbortCause, persistent bool) {
	if t.mode == ModeNone {
		panic("htm: abort outside transaction")
	}
	// Attribute the abort to the recorded doom when that is what fires;
	// capacity/explicit/lock-busy aborts have no aggressor.
	killer, addr := -1, machine.Addr(0)
	if t.doom == cause {
		killer, addr = t.doomKiller, t.doomAddr
	}
	t.rollback()
	t.St.Aborts[cause]++
	t.C.Tick(t.C.Costs().AbortPenalty)
	t.C.Emit(machine.EvTxAbort, addr, PackAbortAux(cause, killer))
	t.sig = abortSignal{cause, persistent}
	panic(&t.sig)
}

// rollback discards speculative state and deregisters from the directory.
//
//simlint:hotpath
func (t *Thread) rollback() {
	m, id := t.C.Machine(), t.C.ID
	for _, l := range t.readLines {
		m.SpecReaders(l).Del(id)
	}
	for _, l := range t.writeLines {
		if m.SpecWriter(l) == id {
			m.SetSpecWriter(l, -1)
		}
	}
	t.readLines = t.readLines[:0]
	t.writeLines = t.writeLines[:0]
	t.ws.reset()
	t.mode = ModeNone
	t.suspended = false
	t.doom = -1
	t.doomKiller = -1
	t.doomAddr = 0
}

func (t *Thread) mustBeActive(op string) {
	if t.mode == ModeNone {
		panic(fmt.Sprintf("htm: %s outside transaction", op))
	}
	if t.suspended {
		panic(fmt.Sprintf("htm: %s while suspended", op))
	}
}
