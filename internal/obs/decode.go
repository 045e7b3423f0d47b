package obs

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// nesting is what a CPU is inside at one instant. Quiescence can nest in a
// transaction, and both can nest in a critical section.
type nesting struct{ cs, tx, quiesce bool }

// cpuState is one CPU's decoder state: its nesting plus the open critical
// section's start time and the quiescence cycles spent inside it so far.
type cpuState struct {
	nesting
	start   int64
	qcycles int64
}

// recKind classifies a resolved record.
type recKind uint8

const (
	recStep     recKind = iota // resolves nothing; the CPU's clock advanced
	recTxBegin                 // a speculative attempt began
	recTxEnd                   // an attempt committed or aborted
	recDoom                    // an attempt was doomed at addr (the conflict occurrence)
	recQuiesce                 // a quiescence window of `cycles` closed
	recSpan                    // a critical section committed on path after `cycles`
	recLockWait                // a spin wait of `cycles` ended
	recIdle                    // the CPU slept `cycles` with no work
)

// record is one event resolved by the decoder. Fields beyond kind, cpu, t
// and in are meaningful only for the kinds that name them.
type record struct {
	kind recKind
	cpu  int
	t    int64
	in   nesting // what the CPU was inside since its previous event

	cycles int64 // recQuiesce, recLockWait, recIdle: interval length; recSpan: latency

	write   bool             // recSpan: write side
	path    stats.CommitPath // recSpan: final commit path
	retries int64            // recSpan: aborted attempts inside the section
	quiesce int64            // recSpan: quiescence cycles inside the section

	abort  bool             // recTxEnd: aborted rather than committed
	cause  stats.AbortCause // recTxEnd, aborts only
	killer int              // recTxEnd, aborts only: aggressor CPU, -1 = none
	addr   machine.Addr     // recDoom
}

// decoder resolves the raw event stream once for every obs consumer: it is
// the only place that decodes Aux payloads and tracks per-CPU nesting.
//
// Edge policy: a CSEnd the decoder cannot resolve, because its CPU has no
// open CSBegin or its commit path is outside stats.NumCommitPaths, is a
// plain step. It closes nothing and no consumer counts it. A CSBegin on a
// CPU whose section is already open restarts the span. Events from CPUs
// outside the decoder's range are dropped.
type decoder struct {
	cpus []cpuState
	rec  record
}

func newDecoder(cpus int) decoder { return decoder{cpus: make([]cpuState, cpus)} }

// decode resolves e and applies it to its CPU's state. The returned record
// is overwritten by the next call, which sets only the fields its kind
// names; it is nil for a CPU out of range.
func (d *decoder) decode(e machine.Event) *record {
	if e.CPU < 0 || e.CPU >= len(d.cpus) {
		return nil
	}
	s := &d.cpus[e.CPU]
	r := &d.rec
	r.kind, r.cpu, r.t, r.in = recStep, e.CPU, e.Time, s.nesting
	switch e.Kind {
	case machine.EvTxBegin:
		r.kind, s.tx = recTxBegin, true
	case machine.EvTxCommit:
		r.kind, s.tx, r.abort = recTxEnd, false, false
	case machine.EvTxAbort:
		r.kind, s.tx, r.abort = recTxEnd, false, true
		r.cause, r.killer = htm.UnpackAbortAux(e.Aux)
	case machine.EvTxDoom:
		r.kind, r.addr = recDoom, e.Addr
	case machine.EvQuiesceStart:
		s.quiesce = true
	case machine.EvQuiesceEnd:
		r.kind, s.quiesce, r.cycles = recQuiesce, false, int64(e.Aux)
		if s.cs {
			s.qcycles += r.cycles
		}
	case machine.EvCSBegin:
		s.cs, s.start, s.qcycles = true, e.Time, 0
	case machine.EvCSEnd:
		write, path, retries := machine.UnpackCS(e.Aux)
		if !s.cs || path >= uint64(stats.NumCommitPaths) {
			break
		}
		r.kind, r.cycles = recSpan, e.Time-s.start
		r.write, r.path, r.retries, r.quiesce = write, stats.CommitPath(path), int64(retries), s.qcycles
		s.cs = false
	case machine.EvLockWait:
		r.kind, r.cycles = recLockWait, int64(e.Aux)
	case machine.EvIdle:
		r.kind, r.cycles = recIdle, int64(e.Aux)
	}
	return r
}
