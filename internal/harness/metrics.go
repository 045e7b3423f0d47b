package harness

import (
	"io"
	"strings"

	"hrwle/internal/machine"
	"hrwle/internal/obs"
)

// RunWithMetrics sweeps figure f like FigureSpec.RunParallel while
// collecting obs telemetry for every point. Each machine is shown to
// ctx.Observe first, if set (from several workers at once when workers >
// 1); the point's collector then joins whatever tracer it installed. It
// returns the sweep results, one RunMetrics per scheme in the figure's
// scheme order (hrwle-bench writes each to the file MetricsFileName
// names) and the total number of events traced. The metrics are
// deterministic regardless of workers: identical seeds produce identical
// metrics.
func RunWithMetrics(ctx PointCtx, f *FigureSpec, scale float64, progress io.Writer, workers int) ([]Result, []*obs.RunMetrics, int64) {
	// One collector slot per point: a point may build more than one machine
	// (e.g. fig10's lazily computed baseline) and only the last one built is
	// the measured run, matching the serial exporter's semantics. Slots are
	// written by worker goroutines and read only after the pool drains (the
	// join in ForEach provides the happens-before edge).
	collectors := make([]*obs.Collector, f.NumPoints())
	mkCtx := func(idx int) PointCtx {
		return PointCtx{Observe: func(m *machine.Machine) {
			if ctx.Observe != nil {
				ctx.Observe(m)
			}
			c := obs.NewCollector()
			collectors[idx] = c
			m.SetTracer(machine.MultiTracer{m.Tracer(), c})
		}}
	}
	results := f.runPoints(scale, progress, workers, mkCtx)

	var totalEvents int64
	var metrics []*obs.RunMetrics
	byScheme := map[string]*obs.RunMetrics{}
	for i, r := range results {
		c := collectors[i]
		if c == nil {
			continue // the point's runner does not support observation
		}
		totalEvents += c.Total()
		rm := byScheme[r.Scheme]
		if rm == nil {
			rm = &obs.RunMetrics{Figure: f.ID, Scheme: r.Scheme}
			byScheme[r.Scheme] = rm
			metrics = append(metrics, rm)
		}
		pm := c.Point(r.Threads, r.WritePct, r.Cycles, &r.B)
		pm.Adaptive = r.Adaptive
		rm.Points = append(rm.Points, pm)
	}

	return results, metrics, totalEvents
}

// MetricsFileName returns the metrics file name for one (figure, scheme)
// pair, with scheme characters outside [A-Za-z0-9._-] mapped to '-' so
// names like "retry=5" stay filesystem-safe.
func MetricsFileName(figure, scheme string) string {
	sanitize := func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '-'
	}
	return strings.Map(sanitize, figure) + "-" + strings.Map(sanitize, scheme) + ".json"
}
