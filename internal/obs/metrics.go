package obs

import (
	"fmt"
	"io"
	"sort"

	"hrwle/internal/stats"
)

// HotAddrLimit is how many conflict hot-spot addresses a PointMetrics
// retains (the ranking is exact up to this cut).
const HotAddrLimit = 16

// MatrixCell is one abort-attribution entry: killer CPU `Killer` caused
// `Count` aborts of cause `Cause` on victim CPU `Victim`. Killer -1 means
// the abort had no aggressor CPU (capacity, explicit, lock subscription,
// or the VM subsystem).
type MatrixCell struct {
	Cause  string `json:"cause"`
	Killer int    `json:"killer"`
	Victim int    `json:"victim"`
	Count  int64  `json:"count"`
}

// AddrConflicts is one conflict hot-spot: a simulated-memory word address
// and how many transaction dooms it caused.
type AddrConflicts struct {
	Addr  int64 `json:"addr"`
	Count int64 `json:"count"`
}

// SpanStats aggregates the critical-section spans that completed on one
// (side, final commit path) combination.
type SpanStats struct {
	Side          string   `json:"side"` // "read" | "write"
	Path          string   `json:"path"` // final stats.CommitPath name
	Count         int64    `json:"count"`
	Retries       int64    `json:"retries"`        // aborted speculative attempts
	QuiesceCycles int64    `json:"quiesce_cycles"` // cycles inside quiescence windows
	Latency       HistJSON `json:"latency"`
}

// Breakdown is the JSON form of stats.Breakdown, with the abort and commit
// arrays keyed by their paper-legend names.
type Breakdown struct {
	Threads     int              `json:"threads"`
	Cycles      int64            `json:"cycles"`
	TxStarts    int64            `json:"tx_starts"`
	Aborts      map[string]int64 `json:"aborts"`
	Commits     map[string]int64 `json:"commits"`
	Ops         int64            `json:"ops"`
	ReadCS      int64            `json:"read_cs"`
	WriteCS     int64            `json:"write_cs"`
	QuiesceWait int64            `json:"quiesce_wait_cycles"`
}

// NewBreakdown converts a stats.Breakdown to its export form.
func NewBreakdown(b *stats.Breakdown) *Breakdown {
	out := &Breakdown{
		Threads:     b.Threads,
		Cycles:      b.Cycles,
		TxStarts:    b.TxStarts,
		Aborts:      make(map[string]int64),
		Commits:     make(map[string]int64),
		Ops:         b.Ops,
		ReadCS:      b.ReadCS,
		WriteCS:     b.WriteCS,
		QuiesceWait: b.QuiesceWait,
	}
	for i, n := range b.Aborts {
		if n > 0 {
			out.Aborts[stats.AbortCause(i).String()] = n
		}
	}
	for i, n := range b.Commits {
		if n > 0 {
			out.Commits[stats.CommitPath(i).String()] = n
		}
	}
	return out
}

// PointMetrics is the telemetry of one measurement point (one machine run).
type PointMetrics struct {
	Threads     int              `json:"threads"`
	WritePct    int              `json:"write_pct"`
	Cycles      int64            `json:"cycles"`
	Breakdown   *Breakdown       `json:"breakdown,omitempty"`
	EventTotals map[string]int64 `json:"event_totals"`
	AbortMatrix []MatrixCell     `json:"abort_matrix"`
	HotAddrs    []AddrConflicts  `json:"hot_addrs"`
	Spans       []SpanStats      `json:"spans"`
	Quiesce     HistJSON         `json:"quiesce_windows"`
	// Adaptive is the self-tuning budget controller's end-of-run state,
	// present only for schemes that run one (e.g. RW-LE_ADAPT).
	Adaptive *AdaptiveState `json:"adaptive,omitempty"`
}

// AdaptiveState is the exportable end-of-run state of a self-tuning
// HTM-budget controller: the budget it converged to and the last decision
// window's HTM win rate in tenths (-1 = no HTM attempted that window).
type AdaptiveState struct {
	Budget    int `json:"budget"`
	WinRate10 int `json:"win_rate_10"`
}

// Point finalizes the collector into a PointMetrics. The breakdown is
// optional (nil when the caller has no stats aggregate).
func (c *Collector) Point(threads, writePct int, cycles int64, b *stats.Breakdown) *PointMetrics {
	p := &PointMetrics{
		Threads:     threads,
		WritePct:    writePct,
		Cycles:      cycles,
		EventTotals: c.EventTotals(),
		AbortMatrix: c.Matrix(),
		HotAddrs:    c.HotAddrs(HotAddrLimit),
		Spans:       c.Spans(),
		Quiesce:     c.QuiesceHist(),
	}
	if b != nil {
		p.Breakdown = NewBreakdown(b)
	}
	return p
}

// RunMetrics is the exportable telemetry of one (figure, scheme) sweep:
// one PointMetrics per measurement point, in figure iteration order.
type RunMetrics struct {
	Figure string          `json:"figure"`
	Scheme string          `json:"scheme"`
	Points []*PointMetrics `json:"points"`
}

// WriteMatrix renders the abort-attribution matrix as one killer×victim
// grid per abort cause, plus the hot-address ranking. Killer column "env"
// aggregates aborts with no aggressor CPU.
func (p *PointMetrics) WriteMatrix(w io.Writer) {
	byCause := map[string][]MatrixCell{}
	var causes []string
	for _, cell := range p.AbortMatrix {
		if _, ok := byCause[cell.Cause]; !ok {
			causes = append(causes, cell.Cause) // already legend-sorted
		}
		byCause[cell.Cause] = append(byCause[cell.Cause], cell)
	}
	if len(causes) == 0 {
		fmt.Fprintln(w, "no aborts recorded")
		return
	}
	for _, cause := range causes {
		cells := byCause[cause]
		killers, victims := axes(cells)
		total := int64(0)
		for _, c := range cells {
			total += c.Count
		}
		fmt.Fprintf(w, "abort attribution — cause %q (%d aborts), killer → victim:\n", cause, total)
		fmt.Fprintf(w, "%8s", "victim\\k")
		for _, k := range killers {
			fmt.Fprintf(w, " %6s", killerName(k))
		}
		fmt.Fprintln(w)
		grid := map[[2]int]int64{}
		for _, c := range cells {
			grid[[2]int{c.Killer, c.Victim}] += c.Count
		}
		for _, v := range victims {
			fmt.Fprintf(w, "%8d", v)
			for _, k := range killers {
				if n := grid[[2]int{k, v}]; n > 0 {
					fmt.Fprintf(w, " %6d", n)
				} else {
					fmt.Fprintf(w, " %6s", ".")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	if len(p.HotAddrs) > 0 {
		fmt.Fprintln(w, "conflict hot spots (dooms per word address):")
		for _, h := range p.HotAddrs {
			fmt.Fprintf(w, "  addr=%-10d %6d\n", h.Addr, h.Count)
		}
	}
}

// WriteHists renders the span latency histograms and the quiescence-window
// histogram as text.
func (p *PointMetrics) WriteHists(w io.Writer) {
	if len(p.Spans) == 0 {
		fmt.Fprintln(w, "no critical-section spans recorded")
	}
	for _, s := range p.Spans {
		fmt.Fprintf(w, "cs latency — %s/%s: %d sections, %d retries, %d quiesce cycles, mean %.0f cycles, %s, max %d\n",
			s.Side, s.Path, s.Count, s.Retries, s.QuiesceCycles, mean(s.Latency), quantileLine(s.Latency), s.Latency.MaxCycles)
		writeBuckets(w, s.Latency)
	}
	if p.Quiesce.Count > 0 {
		fmt.Fprintf(w, "quiescence windows: %d, mean %.0f cycles, %s, max %d\n",
			p.Quiesce.Count, mean(p.Quiesce), quantileLine(p.Quiesce), p.Quiesce.MaxCycles)
		writeBuckets(w, p.Quiesce)
	}
}

// quantileLine renders the p50/p99/p999 summary of an exported histogram.
// The quantiles are rebuilt from the log2 buckets (see Hist.Quantile), so
// they carry bucket-interpolation error — good enough for the at-a-glance
// text view; exact tails come from Samples-based reports.
func quantileLine(h HistJSON) string {
	var hist Hist
	hist.Count, hist.Sum, hist.Max = h.Count, h.SumCycles, h.MaxCycles
	for _, b := range h.Buckets {
		hist.Buckets[bucketIdx(b.LoCycles)] = b.Count
	}
	return fmt.Sprintf("p50 %.0f, p99 %.0f, p999 %.0f",
		hist.Quantile(0.50), hist.Quantile(0.99), hist.Quantile(0.999))
}

// bucketIdx inverts bucketLo: the bucket index whose lower bound is lo.
// Unknown bounds (impossible for Hist-produced JSON) map to bucket 0.
func bucketIdx(lo int64) int {
	for i := 0; i < 65; i++ {
		if bucketLo(i) == lo {
			return i
		}
	}
	return 0
}

func mean(h HistJSON) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumCycles) / float64(h.Count)
}

func writeBuckets(w io.Writer, h HistJSON) {
	var peak int64
	for _, b := range h.Buckets {
		if b.Count > peak {
			peak = b.Count
		}
	}
	for _, b := range h.Buckets {
		bar := int(b.Count * 40 / peak)
		fmt.Fprintf(w, "  >=%-10d %8d %s\n", b.LoCycles, b.Count, barString(bar))
	}
}

func barString(n int) string {
	const full = "########################################"
	if n < 0 {
		n = 0
	}
	if n > len(full) {
		n = len(full)
	}
	return full[:n]
}

// killerName renders a killer CPU id, with -1 shown as the environment.
func killerName(k int) string {
	if k < 0 {
		return "env"
	}
	return fmt.Sprintf("%d", k)
}

// axes extracts the sorted killer and victim id sets of a cell list.
func axes(cells []MatrixCell) (killers, victims []int) {
	ks, vs := map[int]bool{}, map[int]bool{}
	for _, c := range cells {
		ks[c.Killer] = true
		vs[c.Victim] = true
	}
	for k := range ks {
		killers = append(killers, k)
	}
	for v := range vs {
		victims = append(victims, v)
	}
	sort.Ints(killers)
	sort.Ints(victims)
	return killers, victims
}
