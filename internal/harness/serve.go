package harness

import (
	"errors"
	"fmt"
	"io"

	"hrwle/internal/obs"
	"hrwle/internal/service"
	"hrwle/internal/shard"
)

// ServeWorkloads lists the single-structure workloads, in menu order.
func ServeWorkloads() []string { return []string{"hashmap", "kyoto", "tpcc"} }

// ShardWorkload names the sharded scale-out store, a hash-partitioned KV
// store at 64–256 serving CPUs (package shard).
const ShardWorkload = "shard"

// ShardAdaptive is the scheme name of the per-shard adaptive controller
// in the sharded sweep.
const ShardAdaptive = "adaptive"

// ShardPalette is the adaptive controller's scheme ladder, most
// speculative first. Fixed-scheme points run a single rung of it (or any
// other SchemeFactory name).
func ShardPalette() []shard.Scheme {
	return []shard.Scheme{
		{Name: "RW-LE_OPT", Mk: SchemeFactory("RW-LE_OPT")},
		{Name: "HLE", Mk: SchemeFactory("HLE")},
		{Name: "SGL", Mk: SchemeFactory("SGL")},
	}
}

// DefaultProfWindow is the default profiling window width: ~71 us of
// virtual time, fine enough to resolve MMPP bursts on the default grids
// without drowning the text sparklines.
const DefaultProfWindow = 250_000

// ServeSpec describes one open-system sweep: a base point configuration
// swept over scheme × offered load and, on the sharded store, × shard
// count × key skew.
type ServeSpec struct {
	Base    service.Config
	Schemes []string
	Rates   []float64 // offered loads, requests per virtual second

	// The sharded store's axes; nil on the other workloads.
	Shards []int
	Skews  []float64

	// Window is the profiler's window width in cycles; on the sharded
	// store, also the adaptive controller's.
	Window int64
}

// DefaultServeSpec returns the calibrated sweep for a workload (see
// EXPERIMENTS.md). A single structure gets six offered loads straddling
// the slowest default scheme's saturation knee, so the sweep shows both
// the flat low-load region and the post-knee divergence. The sharded store
// sweeps shard counts from coarse to fine and skews from uniform to
// hot-key at one load, just past the weakest fixed scheme's knee.
func DefaultServeSpec(workload string) (ServeSpec, error) {
	spec := ServeSpec{
		Base: service.DefaultConfig(workload),
		// The paper's contribution, the classic elision baseline, and the
		// non-speculative floor.
		Schemes: []string{"RW-LE_OPT", "HLE", "RWL", "SGL"},
		Window:  DefaultProfWindow,
	}
	switch workload {
	case "hashmap":
		spec.Rates = []float64{4e5, 8e5, 1.5e6, 3e6, 6e6, 1.4e7}
	case "kyoto":
		spec.Rates = []float64{2e5, 4e5, 6e5, 8e5, 1.1e6, 1.6e6}
	case "tpcc":
		spec.Rates = []float64{8e4, 1.5e5, 2.2e5, 3e5, 4.5e5, 7e5}
	case ShardWorkload:
		cfg := shard.DefaultConfig()
		spec.Base = cfg.Config
		spec.Schemes = []string{ShardAdaptive, "RW-LE_OPT", "HLE", "SGL"}
		spec.Rates = []float64{2e7}
		spec.Shards = []int{4, 16, 64}
		spec.Skews = []float64{0, 0.9, 1.2}
		spec.Window = cfg.Window
	default:
		return spec, fmt.Errorf("unknown serve workload %q (hashmap|kyoto|tpcc|%s)", workload, ShardWorkload)
	}
	return spec, nil
}

// ProfSpec is a workload's calibrated profile point: its default schemes
// at one offered load.
type ProfSpec struct {
	Base       service.Config
	Schemes    []string
	RatePerSec float64
}

// DefaultProfSpec returns the calibrated profile point for a workload. On
// a single structure the load is the knee: the fourth calibrated rate, the
// first post-knee point for the slowest default scheme, where the schemes'
// cycle mixes diverge most. The sharded store's sweep has only one load.
func DefaultProfSpec(workload string) (ProfSpec, error) {
	spec, err := DefaultServeSpec(workload)
	if err != nil {
		return ProfSpec{}, err
	}
	return ProfSpec{Base: spec.Base, Schemes: spec.Schemes, RatePerSec: spec.Rates[min(3, len(spec.Rates)-1)]}, nil
}

// sharded reports whether the spec serves the sharded store, the one
// workload with shard axes.
func (s *ServeSpec) sharded() bool { return len(s.Shards) > 0 }

// orZero returns v, or one zero value when v is empty: an absent axis
// sweeps a single point.
func orZero[T any](v []T) []T {
	if len(v) == 0 {
		return make([]T, 1)
	}
	return v
}

// NumPoints returns the sweep's point count.
func (s *ServeSpec) NumPoints() int {
	return len(s.Schemes) * len(s.Rates) * len(orZero(s.Shards)) * len(orZero(s.Skews))
}

// Attach selects the observers on every point of a sweep, open or
// closed; none changes a result. RunOpen profiles at its spec's Window,
// RunClosed at Attach.Window (default DefaultProfWindow).
type Attach = obs.Attach

// OpenPoint is one sweep point: coordinates, metrics and observations.
type OpenPoint struct {
	Scheme string
	Rate   float64
	Shards int     // the sharded store only
	Skew   float64 // the sharded store only

	Service  *obs.ServiceMetrics
	Shard    *shard.Result      // the sharded store only
	Profile  *obs.ProfileReport // with Attach.Prof
	Observed *obs.Observers     // the point's finished observers
	Requests []service.Request  // with Attach.Log: the served schedule
}

// RunOpen is the one open-system runner. It sweeps every point of spec
// (scheme-major, then rate, shard count and skew) with attach's observers
// on each, on a bounded worker pool (workers <= 1 means serial). Each
// point builds its own machine from the same seed, so the points are
// bit-identical at any worker count; only progress lines vary in order.
func RunOpen(spec ServeSpec, attach Attach, workers int, progress io.Writer) ([]*OpenPoint, error) {
	pts := make([]*OpenPoint, spec.NumPoints())
	progress = syncWriter(progress)
	err := ForEach(len(pts), workers, func(i int) error {
		p := spec.point(i)
		if err := spec.run(p, attach); err != nil {
			return fmt.Errorf("%s point %s@%.0f/s: %w", spec.Base.Workload, p.label(), p.Rate, err)
		}
		pts[i] = p
		if progress != nil {
			fmt.Fprintf(progress, "  %s %-12s offered=%9.0f/s achieved=%9.0f/s dropped=%d\n", spec.Base.Workload,
				p.label(), p.Service.OfferedPerSec, p.Service.AchievedPerSec, p.Service.Dropped)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// point returns the coordinates of the sweep's i-th point.
func (s *ServeSpec) point(i int) *OpenPoint {
	shards, skews := orZero(s.Shards), orZero(s.Skews)
	nk, nc, nr := len(skews), len(shards), len(s.Rates)
	return &OpenPoint{
		Scheme: s.Schemes[i/(nk*nc*nr)],
		Rate:   s.Rates[i/(nk*nc)%nr],
		Shards: shards[i/nk%nc],
		Skew:   skews[i%nk],
	}
}

// config returns point p's service configuration.
func (s *ServeSpec) config(p *OpenPoint) service.Config {
	cfg := s.Base
	cfg.Arrivals.RatePerSec = p.Rate
	return cfg
}

// shardConfig returns point p's configuration on the sharded store.
func (s *ServeSpec) shardConfig(p *OpenPoint) shard.Config {
	sc := shard.DefaultConfig()
	sc.Config = s.config(p)
	sc.Shards, sc.Keys.Skew, sc.Window = p.Shards, p.Skew, s.Window
	return sc
}

// label names the point in progress lines and errors.
func (p *OpenPoint) label() string {
	if p.Shards == 0 {
		return p.Scheme
	}
	return fmt.Sprintf("%s/%d-shards/s=%.1f", p.Scheme, p.Shards, p.Skew)
}

// run measures point p of the spec with the observers of attach.
func (s *ServeSpec) run(p *OpenPoint, attach Attach) error {
	attach.Window = s.Window
	var reqs []service.Request
	var err error
	if s.sharded() {
		pal := ShardPalette()
		if p.Scheme != ShardAdaptive {
			pal = []shard.Scheme{{Name: p.Scheme, Mk: SchemeFactory(p.Scheme)}}
		}
		p.Shard, reqs, p.Observed, err = shard.RunObserved(s.shardConfig(p), pal, nil, attach)
		if err == nil {
			p.Service = p.Shard.Service
		}
	} else {
		p.Service, reqs, p.Observed, err = service.RunPointObserved(s.config(p), p.Scheme, SchemeFactory(p.Scheme), nil, attach)
	}
	if err != nil {
		return err
	}
	if prof := p.Observed.Profile; prof != nil {
		p.Profile = prof.Report(p.Scheme, s.Base.Workload)
		p.Profile.Service = p.Service
	}
	if attach.Log {
		p.Requests = reqs
	}
	return nil
}

// Check reports whether the spec's points can run and one report can hold
// them. Every point's configuration must pass the checks its run applies
// (shard.Config.Check on the sharded store, service.Config.Check
// elsewhere). A sharded sweep holds one offered load, and a profile (prof)
// one offered load and, on the sharded store, one shard count and one skew.
func (s *ServeSpec) Check(prof bool) error {
	if ((prof || s.sharded()) && len(s.Rates) != 1) || (prof && len(orZero(s.Shards))*len(orZero(s.Skews)) != 1) {
		return errors.New("a sharded sweep holds one offered load, and a profile one load, shard count and skew")
	}
	for i := range s.NumPoints() {
		var err error
		if p := s.point(i); s.sharded() {
			err = s.shardConfig(p).Check()
		} else {
			err = s.config(p).Check()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Report builds the exportable report of a sweep from RunOpen's points:
// the ProfReport when prof is set (the points must carry profiles), else
// the ShardReport on the sharded store, else the ServeReport. It panics
// on a spec that Check rejects.
func (s *ServeSpec) Report(pts []*OpenPoint, prof bool) interface{ WriteText(io.Writer) } {
	if err := s.Check(prof); err != nil {
		panic(err)
	}
	base := s.Base
	switch {
	case prof:
		r := &ProfReport{
			Workload: base.Workload, Process: base.Arrivals.Process.String(),
			Servers: base.Servers, QueueCap: base.QueueCap, Requests: base.Requests, Seed: base.Seed,
			RatePerSec: s.Rates[0], Shards: orZero(s.Shards)[0], Skew: orZero(s.Skews)[0],
			WindowCycles: s.Window, Schemes: s.Schemes,
		}
		for _, p := range pts {
			r.Points = append(r.Points, p.Profile)
		}
		return r
	case s.sharded():
		r := &ShardReport{
			Servers: base.Servers, Requests: base.Requests, QueueCap: base.QueueCap,
			Universe: base.Keys.Universe, CrossPct: base.Keys.CrossPct, RatePerSec: s.Rates[0],
			Seed: base.Seed, Schemes: s.Schemes, ShardCounts: s.Shards, Skews: s.Skews,
		}
		for _, p := range pts {
			r.Points = append(r.Points, &ShardPoint{Scheme: p.Scheme, Shards: p.Shards, Skew: p.Skew, Result: p.Shard})
		}
		return r
	}
	r := &ServeReport{
		Workload: base.Workload, Process: base.Arrivals.Process.String(),
		Servers: base.Servers, QueueCap: base.QueueCap, Requests: base.Requests, Seed: base.Seed,
		Schemes: s.Schemes, RatesPerSec: s.Rates,
	}
	for _, p := range pts {
		r.Points = append(r.Points, p.Service)
	}
	return r
}

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

// ProfReport is the exportable result of one profile run: every scheme
// profiled at one offered load (and, on the sharded store, one shard count
// and skew). Points are index-aligned with Schemes at any worker count.
type ProfReport struct {
	Workload     string               `json:"workload"`
	Process      string               `json:"process"`
	Servers      int                  `json:"servers"`
	QueueCap     int                  `json:"queue_cap"`
	Requests     int                  `json:"requests"`
	Seed         uint64               `json:"seed"`
	RatePerSec   float64              `json:"rate_per_sec"`
	Shards       int                  `json:"shards,omitempty"`
	Skew         float64              `json:"skew,omitempty"`
	WindowCycles int64                `json:"window_cycles"`
	Schemes      []string             `json:"schemes"`
	Points       []*obs.ProfileReport `json:"points"`
}

// WriteText renders the profile run: a cross-scheme cycle-breakdown
// comparison table (the EXPERIMENTS.md "cycles at the knee" table), then
// the per-scheme attribution and sparkline panels.
func (r *ProfReport) WriteText(w io.Writer) {
	name := r.Workload
	if r.Shards > 0 {
		name = fmt.Sprintf("%s, %d shards, skew %.1f", name, r.Shards, r.Skew)
	}
	fmt.Fprintf(w, "# virtual-time profile — %s @ %.0f req/s (%s arrivals, %d servers, queue cap %d, %d requests, seed %d, window %d cycles)\n",
		name, r.RatePerSec, r.Process, r.Servers, r.QueueCap, r.Requests, r.Seed, r.WindowCycles)

	fmt.Fprintf(w, "\n## cycle breakdown (%% of CPUs × sim_cycles)\n%-14s", "category")
	for _, s := range r.Schemes {
		fmt.Fprintf(w, " %12s", s)
	}
	fmt.Fprintln(w)
	for c := 0; c < obs.NumCycleCats; c++ {
		fmt.Fprintf(w, "%-14s", obs.CycleCat(c).String())
		for _, p := range r.Points {
			pct := 0.0
			if p.Cycles.TotalCycles > 0 {
				pct = 100 * float64(p.Cycles.Totals[c]) / float64(p.Cycles.TotalCycles)
			}
			fmt.Fprintf(w, " %11.2f%%", pct)
		}
		fmt.Fprintln(w)
	}

	for _, p := range r.Points {
		p.WriteText(w)
	}
}

// ShardPoint is one sharded sweep point's outcome.
type ShardPoint struct {
	Scheme string        `json:"scheme"`
	Shards int           `json:"shards"`
	Skew   float64       `json:"skew"`
	Result *shard.Result `json:"result"`
}

// ShardReport is the exportable result of one sharded sweep. Points are
// in deterministic scheme-major, shards-then-skew-minor order regardless
// of how many workers ran the sweep.
type ShardReport struct {
	Servers     int           `json:"servers"`
	Requests    int           `json:"requests"`
	QueueCap    int           `json:"queue_cap"`
	Universe    int           `json:"key_universe"`
	CrossPct    int           `json:"cross_pct"`
	RatePerSec  float64       `json:"rate_per_sec"`
	Seed        uint64        `json:"seed"`
	Schemes     []string      `json:"schemes"`
	ShardCounts []int         `json:"shard_counts"`
	Skews       []float64     `json:"skews"`
	Points      []*ShardPoint `json:"points"`
}

// point returns (scheme index, shard-count index, skew index).
func (r *ShardReport) point(si, ci, ki int) *ShardPoint {
	return r.Points[(si*len(r.ShardCounts)+ci)*len(r.Skews)+ki]
}

// WriteText renders the sweep: the saturation panels ({shard count, skew}
// down the rows, schemes across), the adaptive settling summary (per-shard
// final schemes), the switch traces and the per-point detail.
func (r *ShardReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# sharded scale-out sweep — %d servers, %d-key store, %d requests at %.3g/s, cross %d%%, queue cap %d, seed %d\n",
		r.Servers, r.Universe, r.Requests, r.RatePerSec, r.CrossPct, r.QueueCap, r.Seed)

	var rows []string
	for _, sc := range r.ShardCounts {
		for _, sk := range r.Skews {
			rows = append(rows, fmt.Sprintf("%8d %6.1f", sc, sk))
		}
	}
	nk := len(r.Skews)
	writeSaturation(w, fmt.Sprintf("%8s %6s", "shards", "skew"), rows, r.Schemes,
		func(ri, si int) *obs.ServiceMetrics { return r.point(si, ri/nk, ri%nk).Result.Service })

	fmt.Fprintf(w, "\n## adaptive settling (per-shard final schemes)\n")
	for _, p := range r.Points {
		if p.Scheme != ShardAdaptive {
			continue
		}
		final := map[string]int{}
		for _, sh := range p.Result.Shards {
			final[sh.Final]++
		}
		fmt.Fprintf(w, "  shards=%-3d s=%.1f switches=%-4d final:", p.Shards, p.Skew, len(p.Result.Switches))
		for _, rung := range ShardPalette() {
			if n := final[rung.Name]; n > 0 {
				fmt.Fprintf(w, " %s×%d", rung.Name, n)
			}
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\n## switch traces (adaptive points with switches)\n")
	for _, p := range r.Points {
		if p.Scheme == ShardAdaptive && len(p.Result.Switches) > 0 {
			fmt.Fprintf(w, "  shards=%d s=%.1f:\n", p.Shards, p.Skew)
			for _, sw := range p.Result.Switches {
				fmt.Fprintf(w, "    %12d cy  shard %-3d %s -> %s\n", sw.AtCycles, sw.Shard, sw.From, sw.To)
			}
		}
	}

	fmt.Fprintf(w, "\n## per-point detail\n")
	for _, p := range r.Points {
		fmt.Fprintf(w, "\n### %s, %d shards, skew %.1f (cross-shard tx: %d)\n",
			p.Scheme, p.Shards, p.Skew, p.Result.CrossTx)
		p.Result.Service.WriteText(w)
	}
}
