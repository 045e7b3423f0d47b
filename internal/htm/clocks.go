package htm

import "hrwle/internal/machine"

// drainPollCap bounds the escalating poll of a Drain: 1, 2, 4, ... 32 spin
// iterations between two loads of a reader clock.
const drainPollCap = 32

// Clocks is one reader-clock epoch: a clock word per CPU, each on its own
// cache line, that a reader bumps to odd when it enters a read-side
// section and back to even when it leaves. A writer drains the readers it
// must wait for by snapshotting the clocks and waiting until every odd one
// has moved. RW-LE, RW-LE_basic and the RCU domain keep their readers on
// it.
type Clocks struct {
	base  machine.Addr
	n     int
	lineW machine.Addr
}

// NewClocks allocates one clock line per CPU of m.
func NewClocks(m *machine.Machine) Clocks {
	return Clocks{
		base:  m.AllocRawAligned(int64(m.Cfg.CPUs) * m.Cfg.LineWords),
		n:     m.Cfg.CPUs,
		lineW: machine.Addr(m.Cfg.LineWords),
	}
}

// Addr returns CPU i's clock word.
func (k Clocks) Addr(i int) machine.Addr { return k.base + machine.Addr(i)*k.lineW }

// Enter makes t's clock odd, fenced so that writers see the reader, and
// returns the clock's value before entry.
func (k Clocks) Enter(t *Thread) uint64 {
	a := k.Addr(t.C.ID)
	clk := t.Load(a)
	t.Store(a, clk+1)
	t.C.Fence()
	return clk
}

// Exit makes t's clock even again.
func (k Clocks) Exit(t *Thread) {
	a := k.Addr(t.C.ID)
	t.Store(a, t.Load(a)+1)
}

// Snapshot streams every clock into t's reusable scan buffer and returns
// it; the buffer is valid until t's next Snapshot.
func (k Clocks) Snapshot(t *Thread) []uint64 {
	if len(t.scan) < k.n {
		t.scan = make([]uint64, k.n)
	}
	snap := t.scan[:k.n]
	for i := range snap {
		snap[i] = t.LoadStream(k.Addr(i))
	}
	return snap
}

// Drain is one grace period, run as one quiescence window: it snapshots
// the clocks, then waits, engine-stepped, until every clock that was odd
// has moved. The waits carry no EvLockWait; the window accounts for them.
func (k Clocks) Drain(t *Thread) {
	t.Quiesce(func() {
		for i, v := range k.Snapshot(t) {
			if v&1 == 0 {
				continue
			}
			t.ww = wordWait{t: t, a: k.Addr(i), mask: ^uint64(0), want: v, spin: Poll(drainPollCap)}
			t.C.Await(&t.ww)
		}
	})
}
