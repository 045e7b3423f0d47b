package machine

// EventKind classifies trace events emitted by the simulator and the
// layers above it (the htm and core packages emit through the same sink so
// a trace interleaves hardware and algorithm activity in virtual-time
// order).
type EventKind uint8

const (
	// Machine-level events.
	EvRead EventKind = iota
	EvWrite
	EvCAS
	EvPageFault
	EvInterrupt
	// HTM-level events (emitted by internal/htm).
	EvTxBegin
	EvTxCommit
	EvTxAbort
	EvTxSuspend
	EvTxResume
	EvTxDoom
	// Algorithm-level events (emitted by internal/core).
	EvQuiesceStart
	EvQuiesceEnd
	EvPathSwitch
	// Critical-section span events (emitted by internal/core): one
	// begin/end pair per outermost critical section, bracketing every
	// speculative attempt, retry and fallback inside it. Aux is encoded
	// with PackCS/UnpackCS.
	EvCSBegin
	EvCSEnd
	// Profiler-support events. EvLockWait is an instant event emitted
	// after a spin/backoff wait completes: Addr is the polled word and
	// Aux the virtual cycles spent waiting (the wait occupies
	// [Time-Aux, Time]). EvIdle is emitted by CPU.IdleUntil, and by
	// CPU.Wake for the CPU it wakes, with Aux = the cycles the CPU slept
	// with no work to do (the sleep occupies [Time-Aux, Time]).
	EvLockWait
	EvIdle
	// Allocator events (emitted by internal/htm, only while per-access
	// tracing is on — the race sanitizer models the free→alloc handoff of
	// a recycled block as a synchronization edge). Addr is the block base,
	// Aux the requested word count.
	EvAlloc
	EvFree

	NumEventKinds = int(EvFree) + 1
)

var eventNames = [...]string{
	"read", "write", "cas", "page-fault", "interrupt",
	"tx-begin", "tx-commit", "tx-abort", "tx-suspend", "tx-resume", "tx-doom",
	"quiesce-start", "quiesce-end", "path-switch",
	"cs-begin", "cs-end",
	"lock-wait", "idle",
	"alloc", "free",
}

func (k EventKind) String() string { return eventNames[k] }

// Event is one trace record. Addr and Aux are event-specific: memory
// events carry the address and value; tx-abort carries the abort cause in
// Aux; path-switch carries the new path index.
type Event struct {
	Time int64
	CPU  int
	Kind EventKind
	Addr Addr
	Aux  uint64
}

// Tracer receives every event when tracing is enabled. Implementations
// must not call back into the machine.
type Tracer interface {
	Event(e Event)
}

// SetTracer installs (or, with nil, removes) the event sink. Tracing slows
// the simulation down; it does not change virtual time.
func (m *Machine) SetTracer(t Tracer) { m.tracer = t }

// Tracer returns the installed event sink, or nil. Callers that want to
// add a sink without displacing an existing one wrap both in MultiTracer.
func (m *Machine) Tracer() Tracer { return m.tracer }

// Emit sends an event to the tracer, if any, stamping the CPU and time.
// Layers above the machine use it to contribute their own events.
func (c *CPU) Emit(kind EventKind, a Addr, aux uint64) {
	if t := c.m.tracer; t != nil {
		t.Event(Event{Time: c.now, CPU: c.ID, Kind: kind, Addr: a, Aux: aux})
	}
}

// CountTracer tallies events by kind (cheap enough to leave on).
type CountTracer struct {
	Counts [len(eventNames)]int64
}

// Event implements Tracer.
func (c *CountTracer) Event(e Event) { c.Counts[e.Kind]++ }

// Total returns the number of events observed across all kinds.
func (c *CountTracer) Total() int64 {
	var n int64
	for _, v := range c.Counts {
		n += v
	}
	return n
}

// LogTracer retains every event in arrival order, unbounded: the source
// of the Chrome trace exporter and of hrwle-bench's event dump, its tail.
type LogTracer struct {
	Events []Event
}

// Event implements Tracer.
func (l *LogTracer) Event(e Event) { l.Events = append(l.Events, e) }

// MultiTracer fans each event out to every listed tracer, in order. Nil
// entries are skipped, so optional consumers can be composed without
// branching at the installation site.
type MultiTracer []Tracer

// Event implements Tracer.
func (m MultiTracer) Event(e Event) {
	for _, t := range m {
		if t != nil {
			t.Event(e)
		}
	}
}

// PackCS encodes the Aux payload of EvCSBegin/EvCSEnd events: bit 0 is the
// side (1 = write), bits 8-15 carry the final commit path (stats.CommitPath;
// meaningful on EvCSEnd only) and bits 16+ the number of aborted speculative
// attempts inside the section.
func PackCS(write bool, path uint64, retries uint64) uint64 {
	aux := path<<8 | retries<<16
	if write {
		aux |= 1
	}
	return aux
}

// UnpackCS decodes an Aux payload produced by PackCS.
func UnpackCS(aux uint64) (write bool, path uint64, retries uint64) {
	return aux&1 != 0, aux >> 8 & 0xff, aux >> 16
}
