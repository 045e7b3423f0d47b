package obs

import (
	"fmt"
	"io"

	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// Profile bundles the two virtual-time profiling views — per-cycle
// attribution and the windowed telemetry timeline — behind one
// machine.Tracer. It is a one-shard ShardTimelines, with every CPU
// attributed to the shard, whose decoder also feeds the attribution.
// Install it (alone or inside a MultiTracer) right before machine.Run,
// bracketed by Start/Finish around the run.
type Profile struct {
	Cycles   *CycleProf
	Timeline *Timeline

	set *ShardTimelines
}

// NewProfile returns a profile with the given window width in virtual
// cycles and per-class sojourn slots for `classes` request classes (0 for
// closed-loop runs).
func NewProfile(windowCycles int64, classes int) *Profile {
	set := NewShardTimelines(windowCycles, 1, classes)
	set.cycles = newCycleProf(windowCycles)
	return &Profile{Cycles: set.cycles, Timeline: set.Shards[0], set: set}
}

// Start fixes both views' origin at m's current time. Call it right
// before m.Run.
func (p *Profile) Start(m *machine.Machine, cpus int) {
	p.set.Start(m, cpus)
	for id := 0; id < cpus; id++ {
		p.set.SetShard(id, 0)
	}
}

// Event implements machine.Tracer.
func (p *Profile) Event(e machine.Event) { p.set.Event(e) }

// Finish closes both views. Call with machine.Now() right after
// machine.Run returns — and, for open-system runs, after feeding the
// request log to Timeline.AddRequest.
func (p *Profile) Finish(end int64) { p.set.Finish(end) }

// ProfileReport is the exportable result of one profiled point.
type ProfileReport struct {
	Scheme       string          `json:"scheme"`
	Workload     string          `json:"workload"`
	WindowCycles int64           `json:"window_cycles"`
	Service      *ServiceMetrics `json:"service,omitempty"`
	Cycles       *CycleReport    `json:"cycles"`
	Timeline     *TimelineReport `json:"timeline"`
}

// Report snapshots both collectors (call after Finish).
func (p *Profile) Report(scheme, workload string) *ProfileReport {
	return &ProfileReport{
		Scheme:       scheme,
		Workload:     workload,
		WindowCycles: p.Cycles.window,
		Cycles:       p.Cycles.Report(),
		Timeline:     p.Timeline.Report(),
	}
}

// sparkRunes is the 8-level sparkline ramp.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals scaled to the series maximum, downsampling by
// window-averaging when longer than width. An all-zero series renders as
// the lowest ramp level.
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	if width < 1 {
		width = 1
	}
	if len(vals) > width {
		ds := make([]float64, width)
		for i := range ds {
			lo, hi := i*len(vals)/width, (i+1)*len(vals)/width
			if hi == lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range vals[lo:hi] {
				sum += v
			}
			ds[i] = sum / float64(hi-lo)
		}
		vals = ds
	}
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	out := make([]rune, len(vals))
	for i, v := range vals {
		lvl := 0
		if max > 0 && v > 0 {
			lvl = int(v / max * float64(len(sparkRunes)-1))
			if lvl >= len(sparkRunes) {
				lvl = len(sparkRunes) - 1
			}
		}
		out[i] = sparkRunes[lvl]
	}
	return string(out)
}

// sparkPanel prints one labeled sparkline with its peak value.
func sparkPanel(w io.Writer, label string, vals []float64, unit string) {
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	fmt.Fprintf(w, "  %-22s %s  peak %.4g%s\n", label, sparkline(vals, 64), max, unit)
}

// WriteText renders the profile as text panels: the cycle-attribution
// breakdown, then sparklines over the windowed series.
func (r *ProfileReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "\n### profile %s / %s (window %d cycles, %d windows)\n",
		r.Scheme, r.Workload, r.WindowCycles, len(r.Timeline.Windows))
	r.Cycles.WriteBreakdown(w)

	wins := r.Timeline.Windows
	if len(wins) == 0 {
		return
	}
	perSec := machine.CyclesPerSecond / float64(r.WindowCycles)
	series := func(f func(tw *TimelineWindow) float64) []float64 {
		out := make([]float64, len(wins))
		for i := range wins {
			out[i] = f(&wins[i])
		}
		return out
	}
	sum := func(v []int64) int64 {
		var s int64
		for _, x := range v {
			s += x
		}
		return s
	}
	fmt.Fprintf(w, "virtual-time series (one cell ≈ %d cycles)\n", r.WindowCycles)
	sparkPanel(w, "throughput (CS/s)", series(func(tw *TimelineWindow) float64 {
		return float64(tw.CSEnds) * perSec
	}), "")
	sparkPanel(w, "aborts/s", series(func(tw *TimelineWindow) float64 {
		return float64(sum(tw.Aborts)) * perSec
	}), "")
	sparkPanel(w, "SGL-commit share %", series(func(tw *TimelineWindow) float64 {
		if tw.CSEnds == 0 {
			return 0
		}
		return 100 * float64(tw.Commits[stats.CommitSGL]) / float64(tw.CSEnds)
	}), "%")
	if anyRequests(wins) {
		sparkPanel(w, "queue depth (end)", series(func(tw *TimelineWindow) float64 {
			return float64(tw.QueueDepthEnd)
		}), "")
		sparkPanel(w, "in-flight (end)", series(func(tw *TimelineWindow) float64 {
			return float64(tw.InFlightEnd)
		}), "")
		for c := 0; c < r.Timeline.Classes; c++ {
			c := c
			sparkPanel(w, fmt.Sprintf("sojourn p99 us (cls %d)", c),
				series(func(tw *TimelineWindow) float64 {
					if c >= len(tw.SojournP99) {
						return 0
					}
					return Usec(tw.SojournP99[c])
				}), "us")
		}
	}
}

// anyRequests reports whether the request-derived series carry data.
func anyRequests(wins []TimelineWindow) bool {
	for i := range wins {
		if wins[i].Arrivals > 0 {
			return true
		}
	}
	return false
}
