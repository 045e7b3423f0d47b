package harness

import (
	"strings"

	"hrwle/internal/obs"
)

// PointMetrics returns the point's telemetry; its sweep must have run
// with Attach.Metrics.
func (r *Result) PointMetrics() *obs.PointMetrics {
	pm := r.Observed.Collector.Point(r.Threads, r.WritePct, r.Cycles, &r.B)
	pm.Adaptive = r.Adaptive
	return pm
}

// RunMetrics groups the points of a RunClosed sweep of f, run with
// Attach.Metrics, into one RunMetrics per scheme, in the figure's scheme
// order. hrwle-bench writes each to the file MetricsFileName names. The
// metrics are deterministic at any worker count.
func (f *FigureSpec) RunMetrics(results []Result) []*obs.RunMetrics {
	var metrics []*obs.RunMetrics
	byScheme := map[string]*obs.RunMetrics{}
	for i := range results {
		r := &results[i]
		rm := byScheme[r.Scheme]
		if rm == nil {
			rm = &obs.RunMetrics{Figure: f.ID, Scheme: r.Scheme}
			byScheme[r.Scheme] = rm
			metrics = append(metrics, rm)
		}
		rm.Points = append(rm.Points, r.PointMetrics())
	}
	return metrics
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
