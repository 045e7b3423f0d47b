// Package obs turns the machine.Tracer event firehose into structured,
// queryable run telemetry: a killer→victim abort-attribution matrix, a
// per-address conflict hot-spot ranking, and per-critical-section span
// latency histograms split by read/write side and final commit path — the
// lens the paper's evaluation (Figs. 5-8) uses to explain performance
// ("who aborts whom, and on which path does each section finally commit").
//
// Everything here is a pure event consumer: installing a Collector never
// changes virtual time, and with no tracer installed the simulation pays
// nothing (machine.CPU.Emit's nil check). All outputs are deterministic —
// identical seeds produce byte-identical metrics JSON.
package obs

import (
	"sort"

	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// matrixKey identifies one abort-attribution cell.
type matrixKey struct {
	cause  stats.AbortCause
	killer int // CPU id; -1 = VM subsystem / no aggressor
	victim int
}

// abortMatrix counts aborts per (cause, killer, victim) cell.
type abortMatrix map[matrixKey]int64

// add counts the abort resolved in r.
func (m *abortMatrix) add(r *record) {
	if *m == nil {
		*m = make(abortMatrix)
	}
	(*m)[matrixKey{r.cause, r.killer, r.cpu}]++
}

// cells returns the non-nil cell list sorted by (cause, killer, victim).
func (m abortMatrix) cells() []MatrixCell {
	keys := make([]matrixKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.cause != b.cause {
			return a.cause < b.cause
		}
		if a.killer != b.killer {
			return a.killer < b.killer
		}
		return a.victim < b.victim
	})
	cells := make([]MatrixCell, len(keys))
	for i, k := range keys {
		cells[i] = MatrixCell{Cause: k.cause.String(), Killer: k.killer, Victim: k.victim, Count: m[k]}
	}
	return cells
}

// Collector consumes trace events into run telemetry. It implements
// machine.Tracer and must observe a complete run (install it before
// machine.Run) for span accounting to balance.
type Collector struct {
	// CountTracer tallies every event by kind.
	machine.CountTracer

	dec    decoder
	matrix abortMatrix
	addrs  map[machine.Addr]int64

	// lat[side][path]: span latency histograms; side 0 = read, 1 = write.
	lat [2][stats.NumCommitPaths]Hist
	// retries/quiesceBy[side][path]: aborted attempts and quiescence cycles
	// accumulated by the spans that finally committed on (side, path).
	retries   [2][stats.NumCommitPaths]int64
	quiesceBy [2][stats.NumCommitPaths]int64
	// quiesce: one sample per quiescence window (any path).
	quiesce Hist
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector {
	return &Collector{dec: newDecoder(machine.MaxCPUs), addrs: make(map[machine.Addr]int64)}
}

// Event implements machine.Tracer.
func (c *Collector) Event(e machine.Event) {
	c.CountTracer.Event(e)
	r := c.dec.decode(e)
	if r == nil {
		return
	}
	switch r.kind {
	case recDoom:
		// One doom per transaction attempt: the conflict occurrence. The
		// hot-spot ranking counts these, attributed to the contended
		// address; VM-subsystem dooms carry no address and are skipped.
		if r.addr != 0 {
			c.addrs[r.addr]++
		}
	case recTxEnd:
		if r.abort {
			c.matrix.add(r)
		}
	case recQuiesce:
		c.quiesce.Add(r.cycles)
	case recSpan:
		side := 0
		if r.write {
			side = 1
		}
		c.lat[side][r.path].Add(r.cycles)
		c.retries[side][r.path] += r.retries
		c.quiesceBy[side][r.path] += r.quiesce
	}
}

// EventTotals returns per-kind event counts keyed by kind name.
func (c *Collector) EventTotals() map[string]int64 {
	out := make(map[string]int64)
	for k, n := range c.Counts {
		if n > 0 {
			out[machine.EventKind(k).String()] = n
		}
	}
	return out
}

// Matrix returns the abort-attribution cells sorted by (cause, killer,
// victim). Killer -1 denotes aborts with no aggressor CPU (capacity,
// explicit, lock-busy and VM-subsystem aborts).
func (c *Collector) Matrix() []MatrixCell { return c.matrix.cells() }

// HotAddrs returns the top-n conflict addresses by doom count, ties broken
// by address for determinism.
func (c *Collector) HotAddrs(n int) []AddrConflicts {
	out := make([]AddrConflicts, 0, len(c.addrs))
	for a, cnt := range c.addrs {
		out = append(out, AddrConflicts{Addr: int64(a), Count: cnt})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Addr < out[j].Addr
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Spans returns per-(side, final-path) span statistics for every
// combination that completed at least one critical section, in a fixed
// (read-first, path-ordered) order.
func (c *Collector) Spans() []SpanStats {
	var out []SpanStats
	for side := 0; side < 2; side++ {
		name := "read"
		if side == 1 {
			name = "write"
		}
		for p := 0; p < stats.NumCommitPaths; p++ {
			h := &c.lat[side][p]
			if h.Count == 0 {
				continue
			}
			out = append(out, SpanStats{
				Side:          name,
				Path:          stats.CommitPath(p).String(),
				Count:         h.Count,
				Retries:       c.retries[side][p],
				QuiesceCycles: c.quiesceBy[side][p],
				Latency:       h.JSON(),
			})
		}
	}
	return out
}

// QuiesceHist returns the quiescence-window duration histogram.
func (c *Collector) QuiesceHist() HistJSON { return c.quiesce.JSON() }
