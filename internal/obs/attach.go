package obs

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/simsan"
)

// Attach selects the observers a run attaches. None of them changes the
// run: results and sim_cycles stay the same.
type Attach struct {
	Metrics  bool  // a Collector: event totals, abort matrix, span histograms
	Prof     bool  // the virtual-time Profile
	Sanitize bool  // the simsan race detector
	Log      bool  // a full event log
	Window   int64 // the profiler's window width in cycles
}

// Observers are one run's attached observers, as an Attach selected
// them; an observer not selected is nil.
type Observers struct {
	Collector *Collector
	Profile   *Profile
	Log       *machine.LogTracer
	Races     *simsan.Report // the sanitizer's report, set by Finish

	san *simsan.Sanitizer
}

// Install builds the observers a selects and installs them on m for a
// run on cpus CPUs, chained after m's tracer and late (each when
// non-nil). It starts the profiler, with per-class series for classes
// request classes, and sends sys's per-access events to the sanitizer
// alone: no other observer sees them, so attaching the sanitizer changes
// no other observer's output. Call it right before m.Run, and Finish
// right after.
func (a Attach) Install(m *machine.Machine, sys *htm.System, cpus, classes int, late machine.Tracer) *Observers {
	o := &Observers{}
	var chain machine.MultiTracer
	for _, t := range []machine.Tracer{m.Tracer(), late} {
		if t != nil {
			chain = append(chain, t)
		}
	}
	if a.Metrics {
		o.Collector = NewCollector()
		chain = append(chain, o.Collector)
	}
	if a.Log {
		o.Log = &machine.LogTracer{}
		chain = append(chain, o.Log)
	}
	if a.Prof {
		o.Profile = NewProfile(a.Window, classes)
		o.Profile.Start(m, cpus)
		chain = append(chain, o.Profile)
	}
	if a.Sanitize {
		o.san = simsan.New(simsan.Options{CPUs: cpus})
		sys.SetAccessSink(o.san)
		chain = append(chain, o.san)
	}
	switch len(chain) {
	case 0:
	case 1:
		m.SetTracer(chain[0])
	default:
		m.SetTracer(chain)
	}
	return o
}

// Finish closes the run at virtual time now: it finishes the profiler
// and sets Races from the sanitizer. An open-system run feeds the
// profiler its request log first.
func (o *Observers) Finish(now int64) {
	if o.Profile != nil {
		o.Profile.Finish(now)
	}
	if o.san != nil {
		o.Races = o.san.Finish()
	}
}
