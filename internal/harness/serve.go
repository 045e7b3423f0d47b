package harness

import (
	"fmt"
	"io"

	"hrwle/internal/obs"
	"hrwle/internal/service"
)

// ServeSchemes is the default scheme set of the open-system service sweep:
// the paper's contribution, the classic elision baseline, and the
// non-speculative floor.
func ServeSchemes() []string { return []string{"RW-LE_OPT", "HLE", "RWL", "SGL"} }

// ServeSpec describes one hrwle-serve sweep: a base point configuration
// plus the offered-load grid and scheme set swept over it.
type ServeSpec struct {
	Base    service.Config
	Schemes []string
	Rates   []float64 // offered loads, requests per virtual second
}

// ServeWorkloads lists the workloads hrwle-serve can drive, in menu order.
func ServeWorkloads() []string { return []string{"hashmap", "kyoto", "tpcc"} }

// DefaultServeSpec returns the calibrated sweep for a workload: six
// offered-load points chosen to straddle the slowest default scheme's
// saturation knee (see EXPERIMENTS.md for the calibration method), so the
// default sweep always shows both the flat low-load region and the
// post-knee divergence.
func DefaultServeSpec(workload string) (ServeSpec, error) {
	spec := ServeSpec{
		Base:    service.DefaultConfig(workload),
		Schemes: ServeSchemes(),
	}
	switch workload {
	case "hashmap":
		spec.Rates = []float64{4e5, 8e5, 1.5e6, 3e6, 6e6, 1.4e7}
	case "kyoto":
		spec.Rates = []float64{2e5, 4e5, 6e5, 8e5, 1.1e6, 1.6e6}
	case "tpcc":
		spec.Rates = []float64{8e4, 1.5e5, 2.2e5, 3e5, 4.5e5, 7e5}
	default:
		return spec, fmt.Errorf("unknown serve workload %q (hashmap|kyoto|tpcc)", workload)
	}
	return spec, nil
}

// NumPoints returns the sweep's point count.
func (s *ServeSpec) NumPoints() int { return len(s.Schemes) * len(s.Rates) }

// ServeReport is the exportable result of one serve sweep. Points are in
// deterministic scheme-major, rate-minor order regardless of how many
// workers ran the sweep.
type ServeReport struct {
	Workload    string                `json:"workload"`
	Process     string                `json:"process"`
	Servers     int                   `json:"servers"`
	QueueCap    int                   `json:"queue_cap"`
	Requests    int                   `json:"requests"`
	Seed        uint64                `json:"seed"`
	Schemes     []string              `json:"schemes"`
	RatesPerSec []float64             `json:"rates_per_sec"`
	Points      []*obs.ServiceMetrics `json:"points"`
}

// RunServe sweeps scheme × offered-load on a bounded worker pool (workers
// <= 1 means serial). Each point builds its own machine from the same
// seed, so the report is bit-identical at any worker count; progress
// lines are emitted as points complete, so only their order varies.
func RunServe(spec ServeSpec, workers int, progress io.Writer) (*ServeReport, error) {
	base := spec.Base
	report := &ServeReport{
		Workload:    base.Workload,
		Process:     base.Arrivals.Process.String(),
		Servers:     base.Servers,
		QueueCap:    base.QueueCap,
		Requests:    base.Requests,
		Seed:        base.Seed,
		Schemes:     spec.Schemes,
		RatesPerSec: spec.Rates,
		Points:      make([]*obs.ServiceMetrics, spec.NumPoints()),
	}
	progress = syncWriter(progress)
	err := ForEach(spec.NumPoints(), workers, func(i int) error {
		scheme, rate := spec.Schemes[i/len(spec.Rates)], spec.Rates[i%len(spec.Rates)]
		cfg := base
		cfg.Arrivals.RatePerSec = rate
		m, _, err := service.RunPoint(cfg, scheme, SchemeFactory(scheme), nil)
		if err != nil {
			return fmt.Errorf("serve point %s@%.0f/s: %w", scheme, rate, err)
		}
		report.Points[i] = m
		if progress != nil {
			fmt.Fprintf(progress, "  serve %s %-12s offered=%9.0f/s achieved=%9.0f/s dropped=%d\n",
				base.Workload, scheme, m.OfferedPerSec, m.AchievedPerSec, m.Dropped)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// point returns the metrics of (scheme index, rate index).
func (r *ServeReport) point(si, ri int) *obs.ServiceMetrics {
	return r.Points[si*len(r.RatesPerSec)+ri]
}

// WriteText renders the sweep as text: the saturation panels (achieved
// throughput, drop rate, per-class p99 sojourn — offered load down the
// rows, schemes across the columns), then the per-point detail blocks.
func (r *ServeReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# open-system service sweep — %s (%s arrivals, %d servers, queue cap %d, %d requests, seed %d)\n",
		r.Workload, r.Process, r.Servers, r.QueueCap, r.Requests, r.Seed)

	rows := make([]string, len(r.RatesPerSec))
	for ri, rate := range r.RatesPerSec {
		rows[ri] = fmt.Sprintf("%12.0f", rate)
	}
	writeSaturation(w, fmt.Sprintf("%12s", "offered/s"), rows, r.Schemes,
		func(ri, si int) *obs.ServiceMetrics { return r.point(si, ri) })

	fmt.Fprintf(w, "\n## per-point detail\n")
	for si := range r.Schemes {
		for ri := range r.RatesPerSec {
			r.point(si, ri).WriteText(w)
		}
	}
}

// writeSaturation prints the saturation panels the serve and shard
// reports share: achieved throughput, drop rate and one p99 sojourn panel
// per request class, with the rows labelled by rows (head labels the
// label column) and one column per scheme. at returns the metrics of
// (row, scheme).
func writeSaturation(w io.Writer, head string, rows, schemes []string, at func(ri, si int) *obs.ServiceMetrics) {
	panel := func(title string, cell func(m *obs.ServiceMetrics) float64, format string) {
		fmt.Fprintf(w, "\n## %s\n%s", title, head)
		for _, s := range schemes {
			fmt.Fprintf(w, " %12s", s)
		}
		fmt.Fprintln(w)
		for ri, label := range rows {
			fmt.Fprint(w, label)
			for si := range schemes {
				fmt.Fprintf(w, " "+format, cell(at(ri, si)))
			}
			fmt.Fprintln(w)
		}
	}

	panel("achieved throughput (req/s)",
		func(m *obs.ServiceMetrics) float64 { return m.AchievedPerSec }, "%12.0f")
	panel("drop rate (% of arrivals)",
		func(m *obs.ServiceMetrics) float64 {
			return 100 * float64(m.Dropped) / float64(m.Requests)
		}, "%12.2f")
	if len(rows) == 0 || len(schemes) == 0 {
		return
	}
	for ci, cl := range at(0, 0).Classes {
		panel(fmt.Sprintf("%s sojourn p99 (us, priority %d)", cl.Class, ci),
			func(m *obs.ServiceMetrics) float64 {
				return obs.Usec(m.Classes[ci].Sojourn.P99Cycles)
			}, "%12.1f")
	}
}
