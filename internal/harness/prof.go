package harness

import (
	"fmt"
	"io"

	"hrwle/internal/obs"
	"hrwle/internal/service"
)

// ProfSpec describes one hrwle-serve -prof run: every scheme profiled
// against the same workload at one offered load, with the virtual-time
// window width both profiling collectors bucket into.
type ProfSpec struct {
	Base         service.Config
	Schemes      []string
	RatePerSec   float64
	WindowCycles int64
}

// DefaultProfWindow is the default profiling window width: ~71 us of
// virtual time, fine enough to resolve MMPP bursts on the default grids
// without drowning the text sparklines.
const DefaultProfWindow = 250_000

// DefaultProfSpec returns the calibrated profile point for a workload: the
// default serve schemes at the sweep grid's saturation-knee load (the
// fourth of the six calibrated rates — the first post-knee point for the
// slowest default scheme, where the schemes' cycle mixes diverge most).
func DefaultProfSpec(workload string) (ProfSpec, error) {
	serve, err := DefaultServeSpec(workload)
	if err != nil {
		return ProfSpec{}, err
	}
	return ProfSpec{
		Base:         serve.Base,
		Schemes:      serve.Schemes,
		RatePerSec:   serve.Rates[3],
		WindowCycles: DefaultProfWindow,
	}, nil
}

// ProfReport is the exportable result of one profile run. Points are
// index-aligned with Schemes regardless of worker count.
type ProfReport struct {
	Workload     string               `json:"workload"`
	Process      string               `json:"process"`
	Servers      int                  `json:"servers"`
	QueueCap     int                  `json:"queue_cap"`
	Requests     int                  `json:"requests"`
	Seed         uint64               `json:"seed"`
	RatePerSec   float64              `json:"rate_per_sec"`
	WindowCycles int64                `json:"window_cycles"`
	Schemes      []string             `json:"schemes"`
	Points       []*obs.ProfileReport `json:"points"`
}

// RunProf profiles every scheme of the spec at the given offered load on a
// bounded worker pool (workers <= 1 means serial). Each point builds its
// own machine from the same seed with its own profiler, so the report is
// bit-identical at any worker count.
func RunProf(spec ProfSpec, workers int, progress io.Writer) (*ProfReport, error) {
	base := spec.Base
	if spec.WindowCycles < 1 {
		spec.WindowCycles = DefaultProfWindow
	}
	report := &ProfReport{
		Workload:     base.Workload,
		Process:      base.Arrivals.Process.String(),
		Servers:      base.Servers,
		QueueCap:     base.QueueCap,
		Requests:     base.Requests,
		Seed:         base.Seed,
		RatePerSec:   spec.RatePerSec,
		WindowCycles: spec.WindowCycles,
		Schemes:      spec.Schemes,
		Points:       make([]*obs.ProfileReport, len(spec.Schemes)),
	}
	progress = syncWriter(progress)
	err := ForEach(len(spec.Schemes), workers, func(i int) error {
		scheme := spec.Schemes[i]
		cfg := base
		cfg.Arrivals.RatePerSec = spec.RatePerSec
		prof := obs.NewProfile(spec.WindowCycles, len(cfg.Classes))
		m, _, err := service.RunPointProfiled(cfg, scheme, SchemeFactory(scheme), nil, prof)
		if err != nil {
			return fmt.Errorf("profile point %s@%.0f/s: %w", scheme, spec.RatePerSec, err)
		}
		rep := prof.Report(scheme, cfg.Workload)
		rep.Service = m
		report.Points[i] = rep
		if progress != nil {
			got, want := rep.Cycles.Conservation()
			fmt.Fprintf(progress, "  prof %s %-12s achieved=%9.0f/s windows=%d attributed=%d/%d\n",
				base.Workload, scheme, m.AchievedPerSec, len(rep.Timeline.Windows), got, want)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// WriteText renders the profile run: a cross-scheme cycle-breakdown
// comparison table (the EXPERIMENTS.md "cycles at the knee" table), then
// the per-scheme attribution and sparkline panels.
func (r *ProfReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# virtual-time profile — %s @ %.0f req/s (%s arrivals, %d servers, queue cap %d, %d requests, seed %d, window %d cycles)\n",
		r.Workload, r.RatePerSec, r.Process, r.Servers, r.QueueCap, r.Requests, r.Seed, r.WindowCycles)

	fmt.Fprintf(w, "\n## cycle breakdown (%% of CPUs × sim_cycles)\n%-14s", "category")
	for _, s := range r.Schemes {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for c := 0; c < obs.NumCycleCats; c++ {
		fmt.Fprintf(w, "%-14s", obs.CycleCat(c).String())
		for _, p := range r.Points {
			pct := 0.0
			if p != nil && p.Cycles.TotalCycles > 0 {
				pct = 100 * float64(p.Cycles.Totals[c]) / float64(p.Cycles.TotalCycles)
			}
			fmt.Fprintf(w, " %11.2f%%", pct)
		}
		fmt.Fprintln(w)
	}

	for _, p := range r.Points {
		if p != nil {
			p.WriteText(w)
		}
	}
}
