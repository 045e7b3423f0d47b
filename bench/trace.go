package main

import (
	"time"

	"hrwle/internal/machine"
)

// countTracer is the traced pass's machine.Tracer: it tallies events by
// kind, the number of times consecutive events came from different CPUs
// (the event-CPU switches, a proxy for coroutine parks measured from
// outside the engine), and the cycles carried by idle and lock-wait events.
type countTracer struct {
	kinds          [machine.NumEventKinds]int64
	switches       int64
	last           int
	idleCycles     int64
	lockWaitCycles int64
}

func newCountTracer() *countTracer { return &countTracer{last: -1} }

// Event implements machine.Tracer.
func (t *countTracer) Event(e machine.Event) {
	t.kinds[e.Kind]++
	if e.CPU != t.last {
		if t.last >= 0 {
			t.switches++
		}
		t.last = e.CPU
	}
	switch e.Kind {
	case machine.EvIdle:
		t.idleCycles += int64(e.Aux)
	case machine.EvLockWait:
		t.lockWaitCycles += int64(e.Aux)
	}
}

// setupReached is the panic value setupProbe raises at a machine's first
// event. Population emits no events, so the first event marks the end of
// a point's set-up; raising it on every CPU's first event stops the run
// there, so a probe costs set-up time only.
type setupReachedSignal struct{}

var setupReached any = setupReachedSignal{}

// setupProbe records the host time of a machine's first event and stops
// the run.
type setupProbe struct {
	at time.Time
}

// Event implements machine.Tracer.
func (p *setupProbe) Event(machine.Event) {
	if p.at.IsZero() {
		p.at = time.Now()
	}
	panic(setupReached)
}
