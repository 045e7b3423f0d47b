package obs

import (
	"fmt"
	"io"

	"hrwle/internal/stats"
)

// CycleCat is a cycle-attribution category: where one simulated cycle of
// one CPU went. The taxonomy follows the paper's Fig. 5-10 discussion
// (speculation, quiescence, lock waits) plus the open-system queue/idle
// state introduced by the PR 7 service workload.
type CycleCat uint8

const (
	// CatUseful: critical-section work that committed and ran
	// concurrently — a speculative attempt that committed (HTM/ROT) or an
	// uninstrumented read-side section.
	CatUseful CycleCat = iota
	// CatAborted: wasted speculative work — cycles inside hardware
	// transaction attempts that rolled back (including the abort penalty).
	CatAborted
	// CatLockWait: spinning on a lock word — TATAS acquisition, backoff
	// between polls, HLE's wait-until-free, RW-LE readers deferring to a
	// non-speculative writer.
	CatLockWait
	// CatQuiesce: a writer waiting for reader quiescence (the RW-LE
	// synchronize scan), whether or not the enclosing attempt survived.
	CatQuiesce
	// CatFallback: critical-section work serialized under a
	// non-speculative global/writer lock (commit path SGL).
	CatFallback
	// CatApp: application work outside any critical section — op setup,
	// request dispatch, per-op bookkeeping.
	CatApp
	// CatIdle: no work available — an open-system server sleeping until
	// the next arrival, or a finished CPU waiting for stragglers at the
	// end of the run.
	CatIdle

	NumCycleCats = int(CatIdle) + 1
)

var cycleCatNames = [NumCycleCats]string{
	"useful", "aborted-spec", "lock-wait", "quiesce", "fallback", "app-other", "idle",
}

func (c CycleCat) String() string { return cycleCatNames[c] }

// CycleCatNames returns the category names in category order.
func CycleCatNames() []string {
	out := make([]string, NumCycleCats)
	copy(out, cycleCatNames[:])
	return out
}

// cycleSpan is a half-open virtual-time interval [lo, hi) pending
// classification by the outcome of the enclosing attempt or section.
type cycleSpan struct{ lo, hi int64 }

// cycleCPU is one CPU's attribution state.
type cycleCPU struct {
	mark int64       // attribution frontier: cycles before mark are charged
	spec []cycleSpan // pending speculative segments (outcome unknown)
	cs   []cycleSpan // pending non-speculative CS segments (path unknown)
}

// CycleProf attributes every simulated cycle of every CPU to a CycleCat,
// split into fixed-width virtual-time windows. It is Profile's cycle view,
// fed the decoder's records. Attribution is exact: Report's totals sum to
// CPUs × (end − base) cycles.
//
// Each record charges the span since the CPU's previous one to the
// innermost state the decoder says it was in (quiescence > speculation >
// critical section > application). Speculative segments stay pending
// until the attempt's commit (→ useful) or abort (→ aborted); critical
// section segments stay pending until the span resolves by final commit
// path (SGL → fallback, otherwise useful). Lock waits and idle sleeps
// carve their extent out of the enclosing segment.
type CycleProf struct {
	window int64
	base   int64
	end    int64

	per    []cycleCPU
	perCPU [][NumCycleCats]int64
	wins   [][NumCycleCats]int64
}

// newCycleProf returns a profiler with the given window width in cycles
// (values < 1 collapse to one giant window).
func newCycleProf(windowCycles int64) *CycleProf {
	if windowCycles < 1 {
		windowCycles = 1 << 62
	}
	return &CycleProf{window: windowCycles}
}

// start fixes the attribution origin: base is the machine time at which
// machine.Run will start, cpus the number of CPUs the run drives.
func (p *CycleProf) start(base int64, cpus int) {
	p.base, p.end = base, base
	p.per = make([]cycleCPU, cpus)
	p.perCPU = make([][NumCycleCats]int64, cpus)
	for i := range p.per {
		p.per[i].mark = base
	}
	p.wins = p.wins[:0]
}

// charge attributes [lo, hi) on cpu id to cat, splitting across windows.
func (p *CycleProf) charge(id int, lo, hi int64, cat CycleCat) {
	if hi <= lo {
		return
	}
	p.perCPU[id][cat] += hi - lo
	for lo < hi {
		w := int((lo - p.base) / p.window)
		for w >= len(p.wins) {
			p.wins = append(p.wins, [NumCycleCats]int64{})
		}
		seg := p.base + int64(w+1)*p.window
		if seg > hi {
			seg = hi
		}
		p.wins[w][cat] += seg - lo
		lo = seg
	}
}

// resolve charges all pending spans to cat and clears the list.
func (p *CycleProf) resolve(id int, spans *[]cycleSpan, cat CycleCat) {
	for _, s := range *spans {
		p.charge(id, s.lo, s.hi, cat)
	}
	*spans = (*spans)[:0]
}

// advance moves cpu id's frontier to t, attributing the span to the
// innermost state in.
func (p *CycleProf) advance(id int, s *cycleCPU, t int64, in nesting) {
	if t <= s.mark {
		return
	}
	switch {
	case in.quiesce:
		p.charge(id, s.mark, t, CatQuiesce)
	case in.tx:
		s.spec = append(s.spec, cycleSpan{s.mark, t})
	case in.cs:
		s.cs = append(s.cs, cycleSpan{s.mark, t})
	default:
		p.charge(id, s.mark, t, CatApp)
	}
	s.mark = t
}

// consume attributes the cycles up to one decoded record.
func (p *CycleProf) consume(r *record) {
	s := &p.per[r.cpu]
	t := max(r.t, s.mark) // defensive: per-CPU clocks are monotonic by contract
	// A lock wait or idle sleep of r.cycles ending at t is carved out of
	// the segment it ends. Inside a transaction the attempt's outcome
	// classifies the whole span (a wait under speculation is wasted work
	// if the attempt dies), so only non-speculative segments are carved.
	lo, cat := t, CatLockWait
	switch {
	case r.kind == recLockWait && !r.in.tx && !r.in.quiesce:
		lo = max(t-r.cycles, s.mark)
	case r.kind == recIdle && r.in == (nesting{}):
		lo, cat = max(t-r.cycles, s.mark), CatIdle
	}
	p.advance(r.cpu, s, lo, r.in)
	p.charge(r.cpu, lo, t, cat)
	s.mark = t
	switch r.kind {
	case recTxEnd:
		// The abort penalty is ticked before the event fires, so the
		// pending segment charged above includes it.
		cat := CatUseful
		if r.abort {
			cat = CatAborted
		}
		p.resolve(r.cpu, &s.spec, cat)
	case recSpan:
		cat := CatUseful
		if r.path == stats.CommitSGL {
			cat = CatFallback
		}
		p.resolve(r.cpu, &s.cs, cat)
	}
}

// finish closes attribution at the machine's end time, given each CPU's
// final nesting: each CPU's tail from its last event to end is charged
// (idle when no state is active — the CPU ran out of work and waited for
// stragglers), and still-pending spans are classified conservatively
// (unfinished speculation is wasted, an unfinished CS is unknowable and
// counts as application work).
func (p *CycleProf) finish(end int64, cpus []cpuState) {
	end = max(end, p.base)
	p.end = end
	for id := range p.per {
		s := &p.per[id]
		if in := cpus[id].nesting; in != (nesting{}) {
			p.advance(id, s, end, in)
		} else {
			p.charge(id, s.mark, end, CatIdle)
		}
		p.resolve(id, &s.spec, CatAborted)
		p.resolve(id, &s.cs, CatApp)
	}
}

// CycleWindow is one fixed-width window of the attribution time series.
type CycleWindow struct {
	StartCycles int64   `json:"start_cycles"` // window start, relative to run base
	Cycles      []int64 `json:"cycles"`       // by category, order = CycleReport.Categories
}

// CycleReport is the exportable attribution result.
type CycleReport struct {
	CPUs         int           `json:"cpus"`
	BaseCycles   int64         `json:"base_cycles"`
	EndCycles    int64         `json:"end_cycles"`
	WindowCycles int64         `json:"window_cycles"`
	Categories   []string      `json:"categories"`
	Totals       []int64       `json:"totals"`       // by category
	TotalCycles  int64         `json:"total_cycles"` // Σ Totals = CPUs × (end − base)
	PerCPU       [][]int64     `json:"per_cpu"`      // [cpu][category]
	Windows      []CycleWindow `json:"windows"`
}

// Report snapshots the attribution (call after Finish).
func (p *CycleProf) Report() *CycleReport {
	r := &CycleReport{
		CPUs:         len(p.per),
		BaseCycles:   p.base,
		EndCycles:    p.end,
		WindowCycles: p.window,
		Categories:   CycleCatNames(),
		Totals:       make([]int64, NumCycleCats),
		PerCPU:       make([][]int64, len(p.perCPU)),
		Windows:      make([]CycleWindow, len(p.wins)),
	}
	for id := range p.perCPU {
		row := make([]int64, NumCycleCats)
		for c := 0; c < NumCycleCats; c++ {
			row[c] = p.perCPU[id][c]
			r.Totals[c] += row[c]
		}
		r.PerCPU[id] = row
	}
	for c := 0; c < NumCycleCats; c++ {
		r.TotalCycles += r.Totals[c]
	}
	for w := range p.wins {
		cells := make([]int64, NumCycleCats)
		copy(cells, p.wins[w][:])
		r.Windows[w] = CycleWindow{StartCycles: int64(w) * p.window, Cycles: cells}
	}
	return r
}

// Conservation returns the attributed cycle sum and the exact expectation
// CPUs × (end − base); they must be equal for a complete run.
func (r *CycleReport) Conservation() (got, want int64) {
	return r.TotalCycles, int64(r.CPUs) * (r.EndCycles - r.BaseCycles)
}

// WriteBreakdown renders the per-category totals as a text panel.
func (r *CycleReport) WriteBreakdown(w io.Writer) {
	fmt.Fprintf(w, "cycle attribution (%d CPUs × %d cycles = %d CPU-cycles)\n",
		r.CPUs, r.EndCycles-r.BaseCycles, r.TotalCycles)
	for c, name := range r.Categories {
		pct := 0.0
		if r.TotalCycles > 0 {
			pct = 100 * float64(r.Totals[c]) / float64(r.TotalCycles)
		}
		fmt.Fprintf(w, "  %-12s %14d %6.2f%% %s\n", name, r.Totals[c], pct, barString(int(pct*0.4)))
	}
}
