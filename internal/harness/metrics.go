package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hrwle/internal/machine"
	"hrwle/internal/obs"
)

// machineObserver, when non-nil, is invoked by every workload runner right
// after it constructs its simulated machine and before the run starts —
// unless the point's PointCtx carries its own Observe hook, which takes
// precedence. Tests and ad-hoc tracing use this package-level slot with
// strictly serial sweeps; parallel sweeps must use PointCtx.Observe.
var machineObserver func(*machine.Machine)

// SetMachineObserver installs (or, with nil, removes) the fallback hook
// called for every machine a workload runner builds.
func SetMachineObserver(fn func(*machine.Machine)) { machineObserver = fn }

// RunWithMetrics sweeps figure f like FigureSpec.RunParallel while
// collecting obs telemetry for every point, then writes one RunMetrics
// JSON per scheme to dir as <figure>-<scheme>.json. It returns the sweep
// results plus the total number of events traced. The files are
// deterministic regardless of workers: identical seeds produce
// byte-identical JSON.
func RunWithMetrics(f *FigureSpec, scale float64, progress io.Writer, dir string, workers int) ([]Result, int64, error) {
	// One collector slot per point: a point may build more than one machine
	// (e.g. fig10's lazily computed baseline) and only the last one built is
	// the measured run, matching the serial exporter's semantics. Slots are
	// written by worker goroutines and read only after the pool drains (the
	// join in ForEach provides the happens-before edge).
	collectors := make([]*obs.Collector, f.NumPoints())
	mkCtx := func(idx int) PointCtx {
		return PointCtx{Observe: func(m *machine.Machine) {
			c := obs.NewCollector()
			collectors[idx] = c
			m.SetTracer(machine.MultiTracer{c})
		}}
	}
	results := f.runPoints(scale, progress, workers, mkCtx)

	var totalEvents int64
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
		}
		pm := c.Point(r.Threads, r.WritePct, r.Cycles, &r.B)
		pm.Adaptive = r.Adaptive
		rm.Points = append(rm.Points, pm)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return results, totalEvents, err
	}
	schemes := make([]string, 0, len(byScheme))
	for s := range byScheme {
		schemes = append(schemes, s)
	}
	sort.Strings(schemes)
	for _, s := range schemes {
		path := filepath.Join(dir, MetricsFileName(f.ID, s))
		w, err := os.Create(path)
		if err != nil {
			return results, totalEvents, err
		}
		err = byScheme[s].WriteJSON(w)
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return results, totalEvents, fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return results, totalEvents, nil
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
