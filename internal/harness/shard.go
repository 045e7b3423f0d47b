package harness

import (
	"fmt"
	"io"

	"hrwle/internal/obs"
	"hrwle/internal/shard"
)

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

// ShardSchemes is the default scheme axis: the adaptive controller
// against each of its rungs run fixed.
func ShardSchemes() []string {
	return []string{ShardAdaptive, "RW-LE_OPT", "HLE", "SGL"}
}

// ShardSpec describes one hrwle-shard sweep: a base deployment
// configuration swept over shard count × key skew × scheme.
type ShardSpec struct {
	Base    shard.Config
	Schemes []string
	Shards  []int
	Skews   []float64
}

// DefaultShardSpec returns the calibrated scale-out sweep: 64 serving
// CPUs over a 2M-key store, shard counts from coarse to fine, skews from
// uniform to hot-key, at an offered load just past the weakest fixed
// scheme's high-skew saturation knee (see EXPERIMENTS.md).
func DefaultShardSpec() ShardSpec {
	spec := ShardSpec{
		Base:    shard.DefaultConfig(),
		Schemes: ShardSchemes(),
		Shards:  []int{4, 16, 64},
		Skews:   []float64{0, 0.9, 1.2},
	}
	spec.Base.Arrivals.RatePerSec = 2e7
	return spec
}

// NumPoints returns the sweep's point count.
func (s *ShardSpec) NumPoints() int {
	return len(s.Schemes) * len(s.Shards) * len(s.Skews)
}

// ShardPoint is one sweep point's outcome.
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

// RunShard sweeps scheme × shard count × skew on a bounded worker pool
// (workers <= 1 means serial). Each point builds its own machine from the
// same seed, so the report is bit-identical at any worker count; progress
// lines are emitted as points complete, so only their order varies.
func RunShard(spec ShardSpec, workers int, progress io.Writer) (*ShardReport, error) {
	base := spec.Base
	report := &ShardReport{
		Servers:     base.Servers,
		Requests:    base.Requests,
		QueueCap:    base.QueueCap,
		Universe:    base.Keys.Universe,
		CrossPct:    base.Keys.CrossPct,
		RatePerSec:  base.Arrivals.RatePerSec,
		Seed:        base.Seed,
		Schemes:     spec.Schemes,
		ShardCounts: spec.Shards,
		Skews:       spec.Skews,
		Points:      make([]*ShardPoint, spec.NumPoints()),
	}
	progress = syncWriter(progress)
	ns, nk := len(spec.Shards), len(spec.Skews)
	err := ForEach(spec.NumPoints(), workers, func(i int) error {
		scheme, shards, skew := spec.Schemes[i/(ns*nk)], spec.Shards[i/nk%ns], spec.Skews[i%nk]
		cfg := base
		cfg.Shards = shards
		cfg.Keys.Skew = skew
		pal := ShardPalette()
		if scheme != ShardAdaptive {
			pal = []shard.Scheme{{Name: scheme, Mk: SchemeFactory(scheme)}}
		}
		res, err := shard.Run(cfg, pal, nil)
		if err != nil {
			return fmt.Errorf("shard point %s/%d-shards/s=%.1f: %w", scheme, shards, skew, err)
		}
		report.Points[i] = &ShardPoint{Scheme: scheme, Shards: shards, Skew: skew, Result: res}
		if progress != nil {
			fmt.Fprintf(progress, "  shard %-10s shards=%-3d s=%.1f achieved=%9.0f/s dropped=%-5d switches=%d\n",
				scheme, shards, skew, res.Service.AchievedPerSec, res.Service.Dropped, len(res.Switches))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return report, nil
}

// point returns (scheme index, shard-count index, skew index).
func (r *ShardReport) point(si, ci, ki int) *ShardPoint {
	return r.Points[(si*len(r.ShardCounts)+ci)*len(r.Skews)+ki]
}

// WriteText renders the sweep: the scale-out panels (achieved throughput,
// drop rate, p99 sojourn of the standard class — {shard count, skew} down
// the rows, schemes across the columns), the adaptive settling summary
// (per-shard final schemes, the heterogeneity evidence), and the switch
// traces.
func (r *ShardReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "# sharded scale-out sweep — %d servers, %d-key store, %d requests at %.3g/s, cross %d%%, queue cap %d, seed %d\n",
		r.Servers, r.Universe, r.Requests, r.RatePerSec, r.CrossPct, r.QueueCap, r.Seed)

	header := func(title string) {
		fmt.Fprintf(w, "\n## %s\n%8s %6s", title, "shards", "skew")
		for _, s := range r.Schemes {
			fmt.Fprintf(w, " %12s", s)
		}
		fmt.Fprintln(w)
	}
	panel := func(title string, cell func(p *ShardPoint) float64, format string) {
		header(title)
		for ci, sc := range r.ShardCounts {
			for ki, sk := range r.Skews {
				fmt.Fprintf(w, "%8d %6.1f", sc, sk)
				for si := range r.Schemes {
					fmt.Fprintf(w, " "+format, cell(r.point(si, ci, ki)))
				}
				fmt.Fprintln(w)
			}
		}
	}

	panel("achieved throughput (req/s)",
		func(p *ShardPoint) float64 { return p.Result.Service.AchievedPerSec }, "%12.0f")
	panel("drop rate (% of arrivals)",
		func(p *ShardPoint) float64 {
			return 100 * float64(p.Result.Service.Dropped) / float64(p.Result.Service.Requests)
		}, "%12.2f")
	if len(r.Points) > 0 && r.Points[0] != nil {
		for ci := range r.Points[0].Result.Service.Classes {
			ci := ci
			panel(fmt.Sprintf("%s sojourn p99 (us, priority %d)", r.Points[0].Result.Service.Classes[ci].Class, ci),
				func(p *ShardPoint) float64 {
					return obs.Usec(p.Result.Service.Classes[ci].Sojourn.P99Cycles)
				}, "%12.1f")
		}
	}

	fmt.Fprintf(w, "\n## adaptive settling (per-shard final schemes)\n")
	for si, s := range r.Schemes {
		if s != ShardAdaptive {
			continue
		}
		for ci, sc := range r.ShardCounts {
			for ki, sk := range r.Skews {
				p := r.point(si, ci, ki)
				final := map[string]int{}
				for _, sh := range p.Result.Shards {
					final[sh.Final]++
				}
				fmt.Fprintf(w, "  shards=%-3d s=%.1f switches=%-4d final:", sc, sk, len(p.Result.Switches))
				for _, rung := range ShardPalette() {
					if n := final[rung.Name]; n > 0 {
						fmt.Fprintf(w, " %s×%d", rung.Name, n)
					}
				}
				fmt.Fprintln(w)
			}
		}
	}

	fmt.Fprintf(w, "\n## switch traces (adaptive points with switches)\n")
	for si, s := range r.Schemes {
		if s != ShardAdaptive {
			continue
		}
		for ci := range r.ShardCounts {
			for ki := range r.Skews {
				p := r.point(si, ci, ki)
				if len(p.Result.Switches) == 0 {
					continue
				}
				fmt.Fprintf(w, "  shards=%d s=%.1f:\n", p.Shards, p.Skew)
				for _, sw := range p.Result.Switches {
					fmt.Fprintf(w, "    %12d cy  shard %-3d %s -> %s\n", sw.AtCycles, sw.Shard, sw.From, sw.To)
				}
			}
		}
	}

	fmt.Fprintf(w, "\n## per-point detail\n")
	for si := range r.Schemes {
		for ci := range r.ShardCounts {
			for ki := range r.Skews {
				p := r.point(si, ci, ki)
				fmt.Fprintf(w, "\n### %s, %d shards, skew %.1f (cross-shard tx: %d)\n",
					p.Scheme, p.Shards, p.Skew, p.Result.CrossTx)
				p.Result.Service.WriteText(w)
			}
		}
	}
}
