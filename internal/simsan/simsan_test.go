package simsan

import (
	"strings"
	"testing"

	"hrwle/internal/machine"
)

// Stream-builder helpers: every test constructs a synthetic event stream
// and asserts on the analysis verdict. Times only need to be increasing.

type stream struct {
	t   int64
	evs []machine.Event
}

func (s *stream) at(cpu int, kind machine.EventKind, addr machine.Addr, aux uint64) {
	s.t++
	s.evs = append(s.evs, machine.Event{Time: s.t, CPU: cpu, Kind: kind, Addr: addr, Aux: aux})
}

func (s *stream) read(cpu int, a machine.Addr)  { s.at(cpu, machine.EvRead, a, 0) }
func (s *stream) write(cpu int, a machine.Addr) { s.at(cpu, machine.EvWrite, a, 0) }
func (s *stream) cas(cpu int, a machine.Addr)   { s.at(cpu, machine.EvCAS, a, 0) }
func (s *stream) begin(cpu int)                 { s.at(cpu, machine.EvTxBegin, 0, 0) }
func (s *stream) commit(cpu int)                { s.at(cpu, machine.EvTxCommit, 0, 0) }
func (s *stream) abort(cpu int)                 { s.at(cpu, machine.EvTxAbort, 0, 0) }
func (s *stream) suspend(cpu int)               { s.at(cpu, machine.EvTxSuspend, 0, 0) }
func (s *stream) resume(cpu int)                { s.at(cpu, machine.EvTxResume, 0, 0) }
func (s *stream) qstart(cpu int)                { s.at(cpu, machine.EvQuiesceStart, 0, 0) }
func (s *stream) qend(cpu int)                  { s.at(cpu, machine.EvQuiesceEnd, 0, 0) }

func (s *stream) alloc(cpu int, a machine.Addr, n uint64) { s.at(cpu, machine.EvAlloc, a, n) }
func (s *stream) free(cpu int, a machine.Addr, n uint64)  { s.at(cpu, machine.EvFree, a, n) }

func (s *stream) analyze(cpus int) *Report {
	san := New(Options{CPUs: cpus})
	for _, e := range s.evs {
		san.Event(e)
	}
	return san.Finish()
}

const (
	lockA machine.Addr = 0x100
	dataA machine.Addr = 0x200
	dataB machine.Addr = 0x210
	clkA  machine.Addr = 0x300
)

func wantRaces(t *testing.T, rep *Report, n int, kind string) {
	t.Helper()
	if rep.Total != n {
		t.Fatalf("got %d race(s), want %d: %+v", rep.Total, n, rep.Races)
	}
	if n > 0 && rep.Races[0].Kind != kind {
		t.Fatalf("race kind %q, want %q", rep.Races[0].Kind, kind)
	}
}

func TestPlainWriteReadRace(t *testing.T) {
	var s stream
	s.write(0, dataA)
	s.read(1, dataA)
	rep := s.analyze(2)
	wantRaces(t, rep, 1, "read-after-write")
	r := rep.Races[0]
	if r.Prior.CPU != 0 || r.Second.CPU != 1 || !r.Prior.Write || r.Second.Write {
		t.Fatalf("bad sites: %+v", r)
	}
	if r.PriorClock <= r.SeenClock {
		t.Fatalf("evidence not a clock violation: %+v", r)
	}
}

func TestPlainWriteWriteRace(t *testing.T) {
	var s stream
	s.write(0, dataA)
	s.write(1, dataA)
	wantRaces(t, s.analyze(2), 1, "write-after-write")
}

func TestReadReadNeverRaces(t *testing.T) {
	var s stream
	s.read(0, dataA)
	s.read(1, dataA)
	s.read(2, dataA)
	wantRaces(t, s.analyze(3), 0, "")
}

// A CAS-guarded handoff is ordered: writer releases the lock word, reader's
// acquire joins the writer's clock.
func TestLockOrdering(t *testing.T) {
	var s stream
	s.cas(0, lockA)   // acquire lock
	s.write(0, dataA) // guarded write
	s.write(0, lockA) // release (sync word: classified via the CAS)
	s.read(1, lockA)  // acquire
	s.read(1, dataA)  // ordered read
	s.write(1, dataA) // ordered write
	wantRaces(t, s.analyze(2), 0, "")
}

// Without the release-side join the same accesses race.
func TestNoEdgeWithoutRelease(t *testing.T) {
	var s stream
	s.cas(0, lockA)
	s.write(0, dataA)
	s.read(1, dataA) // reader never touched the lock word
	wantRaces(t, s.analyze(2), 1, "read-after-write")
}

// Committed transactions are atomic blocks: a read of a committed
// transactional publication is not by itself a race (aggregate store), and
// an overwrite of it is ordered by conflict detection (an earlier store
// would have doomed the claim). What DOES race against a commit-published
// write is an unordered prior plain read — the torn-snapshot hazard the
// quiescence protocol exists to prevent.
func TestCommittedTxAtomicPublication(t *testing.T) {
	var s stream
	s.begin(0)
	s.write(0, dataA)
	s.commit(0)
	s.read(1, dataA)  // reads the committed aggregate: allowed
	s.write(1, dataA) // overwrite serialized after the publication: allowed
	wantRaces(t, s.analyze(2), 0, "")

	var s2 stream
	s2.read(1, dataA) // plain read-side section, never drained
	s2.begin(0)
	s2.write(0, dataA)
	s2.commit(0) // publishes mid-section: torn snapshot
	rep := s2.analyze(2)
	wantRaces(t, rep, 1, "write-after-read")
	if rep.Races[0].Second.Ctx != CtxCommit {
		t.Fatalf("second ctx %q, want %q", rep.Races[0].Second.Ctx, CtxCommit)
	}
}

// A transactional write that never commits doesn't order or race anything.
func TestAbortedWritesDiscarded(t *testing.T) {
	var s stream
	s.begin(0)
	s.write(0, dataA)
	s.abort(0)
	s.write(1, dataA)
	s.read(1, dataA)
	wantRaces(t, s.analyze(2), 0, "")
}

// A racy transactional read surfaces only if its transaction commits.
func TestSpeculativeReadVerdictGatedOnCommit(t *testing.T) {
	shape := func(end func(s *stream)) *Report {
		var s stream
		s.write(0, dataA) // unpublished prior write, no edges
		s.begin(1)
		s.read(1, dataA) // races eagerly, verdict pending
		end(&s)
		return s.analyze(2)
	}
	wantRaces(t, shape(func(s *stream) { s.abort(1) }), 0, "")
	rep := shape(func(s *stream) { s.commit(1) })
	wantRaces(t, rep, 1, "read-after-write")
	if rep.Races[0].Second.Ctx != CtxTx {
		t.Fatalf("second ctx %q, want %q", rep.Races[0].Second.Ctx, CtxTx)
	}
	if rep.Races[0].SurfacedAt <= rep.Races[0].Second.Time {
		t.Fatalf("race should surface at commit, after the access: %+v", rep.Races[0])
	}
}

// A plain write landing on a tracked transactional read is ordered by
// conflict detection whichever way the transaction resolves: an aborted
// speculation never happened, an HTM reader would have been doomed by the
// store (so a commit in the stream proves the store serialized after the
// block), and a ROT that commits serializes before the writer. Neither
// shape is a race.
func TestWriteAgainstTxReadOrderedByConflictDetection(t *testing.T) {
	shape := func(end func(s *stream)) *Report {
		var s stream
		s.begin(1)
		s.read(1, dataA)
		s.write(0, dataA) // overwrites the speculative read set
		end(&s)
		return s.analyze(2)
	}
	wantRaces(t, shape(func(s *stream) { s.abort(1) }), 0, "")
	wantRaces(t, shape(func(s *stream) { s.commit(1) }), 0, "")
}

// The unsafe-lazy-subscription shape: the transaction reads data written by
// a non-speculative lock holder mid-section, and only reads the lock word
// after the holder released. The late acquire joins the holder's clock, so
// only the eager read-time check can see the violation.
func TestLazySubscriptionShapeCaught(t *testing.T) {
	var s stream
	s.cas(0, lockA)   // holder acquires
	s.write(0, dataA) // holder's mid-section store
	s.begin(1)
	s.read(1, dataA)  // tx reads unpublished intermediate state
	s.write(0, lockA) // holder releases
	s.read(1, lockA)  // lazy subscription: sees the lock free, joins holder
	s.commit(1)       // commits — the eager verdict surfaces
	rep := s.analyze(2)
	wantRaces(t, rep, 1, "read-after-write")

	// Eager subscription on the same interleaving aborts instead of
	// committing (the holder's CAS dooms the subscribed reader), so the
	// realizable stream carries no commit and stays race-free.
	var s2 stream
	s2.cas(0, lockA)
	s2.write(0, dataA)
	s2.begin(1)
	s2.read(1, lockA) // eager subscription
	s2.read(1, dataA)
	s2.abort(1) // doomed by the holder (conflict on the subscribed line)
	s2.write(0, lockA)
	wantRaces(t, s2.analyze(2), 0, "")
}

// The subscription edge: a committed regular transaction that read a sync
// word is ordered before the word's next acquirer — including everything
// the transaction's CPU did BEFORE the block, which conflict detection
// alone cannot order. A ROT's untracked load certifies nothing and grants
// no such edge, so the pre-block plain write stays racy.
func TestSubscriptionEdgeOrdersElidedBlock(t *testing.T) {
	elide := func(rot uint64) *Report {
		var s stream
		s.write(1, dataA) // plain, before the elided block
		s.at(1, machine.EvTxBegin, 0, rot)
		s.read(1, lockA) // subscription (lockA is sync via CPU 0's CAS)
		s.commit(1)
		s.cas(0, lockA)   // next holder acquires
		s.write(0, dataA) // ordered only through the subscription edge
		return s.analyze(2)
	}
	wantRaces(t, elide(0), 0, "")
	rep := elide(1) // ROT: no tracked subscription, no edge
	wantRaces(t, rep, 1, "write-after-write")
}

// Suspended-window accesses are non-transactional: immediate, durable
// across abort, and racy without an ordering edge.
func TestSuspendWindowAccesses(t *testing.T) {
	var s stream
	s.begin(0)
	s.suspend(0)
	s.write(0, dataA) // non-transactional despite the active tx
	s.resume(0)
	s.abort(0) // the suspended write survives the abort
	s.read(1, dataA)
	rep := s.analyze(2)
	wantRaces(t, rep, 1, "read-after-write")
	if rep.Races[0].Prior.Ctx != CtxSuspended {
		t.Fatalf("prior ctx %q, want %q", rep.Races[0].Prior.Ctx, CtxSuspended)
	}
}

// The quiescence protocol's edge: a reader's clock-word store is a release,
// the writer's in-window scan load is an acquire, so draining a reader
// orders the writer's subsequent stores after the reader's section.
func TestQuiesceEdgeOrdersDrainedReader(t *testing.T) {
	var s stream
	s.write(1, clkA) // reader enters (clock odd): release
	s.read(1, dataA) // uninstrumented read-side section
	s.write(1, clkA) // reader exits: release publishes the section
	s.qstart(0)
	s.read(0, clkA) // scan load: acquire (also classifies clkA as sync)
	s.qend(0)
	s.write(0, dataA) // ordered after the drained reader
	wantRaces(t, s.analyze(2), 0, "")

	// The same accesses without a quiescence window: the clock word is
	// just data, nothing synchronizes, and the write races the read.
	var s2 stream
	s2.write(1, clkA)
	s2.read(1, dataA)
	s2.write(1, clkA)
	s2.read(0, clkA)
	s2.write(0, dataA)
	rep := s2.analyze(2)
	if rep.Total == 0 {
		t.Fatal("expected races without the quiescence classification")
	}
}

// The in-transaction quiescence scan (ROT path) acquires immediately, so
// the commit-published stores are ordered after drained readers.
func TestInTxQuiesceAcquire(t *testing.T) {
	var s stream
	s.write(1, clkA) // reader enters
	s.read(1, dataA)
	s.write(1, clkA) // reader exits
	s.begin(0)       // ROT writer
	s.write(0, dataA)
	s.qstart(0)
	s.read(0, clkA) // inline scan, inside the transaction
	s.qend(0)
	s.commit(0) // publication ordered after the reader via the scan acquire
	wantRaces(t, s.analyze(2), 0, "")
}

// Duplicate races collapse; distinct CPU pairs stay distinct.
func TestDedup(t *testing.T) {
	var s stream
	s.write(0, dataA)
	s.read(1, dataA)
	s.read(1, dataA)
	s.read(2, dataA)
	rep := s.analyze(3)
	if rep.Total != 2 || rep.Dups != 1 {
		t.Fatalf("total=%d dups=%d, want 2/1: %+v", rep.Total, rep.Dups, rep.Races)
	}
}

func TestMaxRacesCap(t *testing.T) {
	san := New(Options{CPUs: 8, MaxRaces: 2})
	var s stream
	s.write(0, dataA)
	for c := 1; c < 8; c++ {
		s.read(c, dataA)
	}
	for _, e := range s.evs {
		san.Event(e)
	}
	rep := san.Finish()
	if rep.Total != 7 || len(rep.Races) != 2 {
		t.Fatalf("total=%d kept=%d, want 7/2", rep.Total, len(rep.Races))
	}
}

func TestReportText(t *testing.T) {
	var s stream
	s.write(0, dataA)
	s.read(1, dataA)
	rep := s.analyze(2)
	var b strings.Builder
	rep.WriteText(&b)
	out := b.String()
	for _, frag := range []string{"simsan: 1 race(s)", "read-after-write", "CPU 0 write", "CPU 1 read", "prior epoch"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report text missing %q:\n%s", frag, out)
		}
	}

	var clean stream
	clean.read(0, dataA)
	b.Reset()
	clean.analyze(1).WriteText(&b)
	if !strings.Contains(b.String(), "no races") {
		t.Fatalf("clean report text: %s", b.String())
	}
}

// Two committed transactions conflicting on a data word are ordered by the
// hardware's conflict detection, never by a lock word: no race in either
// the read-write or write-write direction. This is how two elided sections
// interact — neither ever writes the lock they elide.
func TestCommittedTxTxConflictOrdered(t *testing.T) {
	var s stream
	s.begin(0)
	s.begin(1)
	s.read(1, dataA)
	s.commit(1)       // reader tx retires first
	s.write(0, dataA) // buffered
	s.commit(0)       // publishes against CPU 1's committed tx read: exempt
	wantRaces(t, s.analyze(2), 0, "")

	var w stream
	w.begin(0)
	w.begin(1)
	w.write(1, dataA)
	w.commit(1)
	w.write(0, dataA)
	w.commit(0)
	wantRaces(t, w.analyze(2), 0, "")
}

// The tx-tx exemption does not extend to suspended accesses: a suspended
// read conflicting with a later commit-published write has no hardware
// ordering (suspended accesses are untracked) and must still be flagged.
func TestSuspendedReadVsCommitStillRaces(t *testing.T) {
	var s stream
	s.begin(1)
	s.suspend(1)
	s.read(1, dataA)
	s.resume(1)
	s.commit(1)
	s.begin(0)
	s.write(0, dataA)
	s.commit(0)
	wantRaces(t, s.analyze(2), 1, "write-after-read")
}

// A fallback-path store overwriting a committed transaction's read is
// ordered: had the store landed while the reader was still speculating, an
// HTM reader would have been doomed and a ROT serializes before the
// writer. The exemption is exactly the write-after direction; the
// transaction READING the plain holder's unpublished state (lazy
// subscription) races as ever — see TestLazySubscriptionShapeCaught.
func TestPlainWriteVsCommittedTxReadOrdered(t *testing.T) {
	var s stream
	s.begin(1)
	s.read(1, dataA)
	s.commit(1)
	s.write(0, dataA)
	wantRaces(t, s.analyze(2), 0, "")
}

// The allocator is a synchronization channel: a block freed by one CPU and
// allocated by another carries a free→alloc edge and a fresh shadow, so
// its previous life doesn't race its next one. Without the allocator
// events the same accesses race (control).
func TestAllocHandoffOrdersRecycledBlock(t *testing.T) {
	var s stream
	s.write(0, dataA) // old life, owned by CPU 0
	s.read(0, dataA+1)
	s.free(0, dataA, 2)
	s.alloc(1, dataA, 2)
	s.write(1, dataA) // new life, new owner
	s.write(1, dataA+1)
	wantRaces(t, s.analyze(2), 0, "")

	var s2 stream
	s2.write(0, dataA)
	s2.write(1, dataA) // no handoff: unordered overwrite
	wantRaces(t, s2.analyze(2), 1, "write-after-write")
}

// The free bumps the freeing CPU's clock, so a use-after-free through a
// stale pointer — an access AFTER the block was handed off — still races
// with the new owner.
func TestStalePointerAfterFreeStillRaces(t *testing.T) {
	var s stream
	s.free(0, dataA, 2)
	s.alloc(1, dataA, 2)
	s.write(1, dataA)
	s.write(0, dataA) // freer writes through a stale pointer
	wantRaces(t, s.analyze(2), 1, "write-after-write")
}

// A writer's transaction that eagerly reads a reader's MID-SECTION plain
// store, then drains that reader through its own quiescence scan before
// committing, has ordered the whole reader section before its publication:
// the eager verdict was premature and must settle clean at commit. This is
// the RW-LE writer shape over uninstrumented structures (e.g. a store
// iteration reading record words a concurrent reader-side op just wrote
// under an inner mutex the writer never takes).
func TestQuiesceDrainSettlesEagerVerdict(t *testing.T) {
	// ROT shape: inline quiescence between the body and the commit.
	var s stream
	s.write(1, clkA)  // reader enters (clock word store = release)
	s.write(1, dataA) // reader's mid-section store
	s.begin(0)
	s.read(0, dataA) // eager verdict: unordered at read time
	s.write(1, clkA) // reader exits, releasing its full section
	s.qstart(0)
	s.read(0, clkA) // drain scan acquires the reader's exit
	s.qend(0)
	s.commit(0)
	wantRaces(t, s.analyze(2), 0, "")

	// HTM shape: the scan runs suspended (writeHTM quiesces inside the
	// transaction's suspend window) — settlement must still apply.
	var s2 stream
	s2.write(1, clkA)
	s2.write(1, dataA)
	s2.begin(0)
	s2.read(0, dataA)
	s2.write(1, clkA)
	s2.suspend(0)
	s2.qstart(0)
	s2.read(0, clkA)
	s2.qend(0)
	s2.resume(0)
	s2.commit(0)
	wantRaces(t, s2.analyze(2), 0, "")
}

// The same late edge acquired through an ORDINARY sync-word load — the lazy
// subscription shape — settles nothing: only quiescence-window acquires
// forgive an eager verdict, so the unsafe-lazy-subscription mutation stays
// detectable even though the holder's release reaches the transaction's
// vector clock before commit.
func TestOrdinaryLateAcquireDoesNotSettleVerdict(t *testing.T) {
	var s stream
	s.at(0, machine.EvLockWait, clkA, 0) // classify clkA as a sync word
	s.write(1, clkA)                     // holder's release path
	s.write(1, dataA)                    // holder's mid-section store
	s.begin(0)
	s.read(0, dataA) // eager verdict: unordered at read time
	s.write(1, clkA) // holder releases
	s.read(0, clkA)  // late subscription load: acquires, but outside quiescence
	s.commit(0)
	wantRaces(t, s.analyze(2), 1, "read-after-write")
}
