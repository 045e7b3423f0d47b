// Package simsan is a happens-before data-race sanitizer for simulated
// executions: a machine.Tracer that buffers the event stream of one run and
// analyzes it with FastTrack-style vector clocks (Flanagan & Freund, PLDI'09),
// adapted to the HTM semantics of internal/htm.
//
// The analysis understands the synchronization idioms of this codebase
// without any annotation, by deriving everything from the stream itself:
//
//   - Synchronization words are classified structurally: any address that is
//     ever CAS'd (EvCAS), waited on (EvLockWait), or read by a CPU inside its
//     own quiescence window (EvQuiesceStart/End) is a sync word for the whole
//     run. Reads of sync words are acquires, writes are releases, CAS is
//     both. That covers lock words, reader clocks, the fair variant's local
//     version copies, and every spin-wait cell — and exempts them from data
//     race checking, which is reserved for data words.
//
//   - Committed transactions are atomic blocks: their stores are buffered and
//     published at EvTxCommit under the commit-time vector clock, and a read
//     that observes a committed transactional write is never racy by itself
//     (the commit is an atomic aggregate publication at a scheduling
//     boundary — this is exactly what lets RW-LE readers overlap a writer's
//     speculation soundly). More generally, a committed transaction's
//     tracked accesses need no vector-clock edge against anything that
//     follows them in the stream: conflict detection supplies the order. A
//     store that lands unordered on a committed publication must have come
//     after the commit (earlier it would have doomed the claim), and a
//     store that overwrites a committed transaction's read serialized after
//     the transaction (an HTM reader would have been doomed; a ROT that
//     commits serializes before any writer of its untracked reads, since
//     that writer never observed the ROT's buffered state). Committed
//     writes still require an ordering edge to any prior plain or suspended
//     access — that is what the quiescence protocol provides, and dropping
//     it (the skip-quiesce mutation) stays detectable.
//
//   - The allocator is a synchronization channel: EvFree releases on the
//     block base and EvAlloc acquires it and resets the block's shadow
//     state, so a record recycled by one CPU and reused by another is
//     ordered through the free list, not flagged against its previous
//     life. The freeing CPU's clock is bumped at the free, so its *later*
//     accesses through a stale pointer still race with the new owner.
//
//   - Transactional reads are checked eagerly, at read time, under the
//     read-time vector clock; the verdict is buffered and surfaced only if
//     the transaction commits (aborted speculation never happened). Eager
//     checking is what catches unsafe lazy subscription: by the time a
//     lazily-subscribing transaction re-reads the lock word, the fallback
//     holder has released it, and a commit-time check would find a spurious
//     edge that the body's reads never had. One class of late edge does
//     settle eager verdicts at commit: acquires the transaction made
//     through its OWN quiescence scans (sync-word reads inside its
//     EvQuiesceStart/End windows, suspended or inline). Quiescence is the
//     algorithm's reader-drain certification — a writer that read a
//     reader's mid-section store and then drained that reader before
//     committing ordered the whole reader section before its publication,
//     so the eager verdict was merely premature. This cannot excuse lazy
//     subscription: the fallback holder's write section never releases
//     into the reader clocks a quiescence scan reads.
//
//   - Committed regular transactions release into every sync word they read
//     while active (their subscriptions): those loads are conflict-tracked,
//     so the commit certifies the word never changed during the block, and
//     the next acquirer of the word — e.g. a fallback writer's CAS — is
//     ordered after the whole atomic block. This is the edge lock *elision*
//     relies on without ever writing the lock word. ROT and suspended loads
//     are untracked and certify nothing, so they grant no such edge.
//
//   - Suspended accesses (between EvTxSuspend and EvTxResume) are
//     non-transactional: immediate, and durable across a later abort,
//     mirroring POWER8 suspend semantics.
//
// Everything else — plain reads and writes, including the uninstrumented
// RW-LE read-side sections — is checked with the classic FastTrack rules:
// a write must happen after every prior access to the word, a read must
// happen after the prior write (unless that write is a committed
// transactional publication, per the atomic-block rule above).
//
// The sanitizer is strictly an observer: it charges no virtual time and
// allocates nothing on the simulated fast path. It does buffer the whole
// event stream (two passes are needed: sync classification must precede the
// happens-before pass), so sanitized runs should be kept to bounded
// horizons. Reports are deterministic: races are found in stream order and
// deduplicated by (kind, address, CPU pair).
package simsan

import "hrwle/internal/machine"

// Options configures a Sanitizer.
type Options struct {
	// CPUs is the number of simulated CPUs in the traced run.
	CPUs int
	// MaxRaces caps how many distinct races are retained in the report
	// (further ones are counted but dropped). Default 64.
	MaxRaces int
}

// Sanitizer buffers one execution's event stream for race analysis. Attach
// it with machine.SetTracer (composing with any other tracer through
// machine.MultiTracer) and make it the htm-level access sink with
// htm.System.SetAccessSink; call Finish after the run.
type Sanitizer struct {
	opt    Options
	events []machine.Event
	rep    *Report
}

// New returns a Sanitizer for a run on n CPUs.
func New(opt Options) *Sanitizer {
	if opt.CPUs <= 0 {
		opt.CPUs = 1
	}
	if opt.MaxRaces <= 0 {
		opt.MaxRaces = 64
	}
	return &Sanitizer{opt: opt}
}

// Event implements machine.Tracer.
func (s *Sanitizer) Event(e machine.Event) {
	s.events = append(s.events, e)
}

// Events returns how many events have been buffered.
func (s *Sanitizer) Events() int { return len(s.events) }

// Finish runs the two-pass analysis and returns the race report. The
// report is computed once and cached; the buffered stream is released.
func (s *Sanitizer) Finish() *Report {
	if s.rep == nil {
		s.rep = analyze(s.opt, s.events)
		s.events = nil
	}
	return s.rep
}
