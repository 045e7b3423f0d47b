package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/service"
)

// profAt selects the profiler alone, windowed at window cycles.
func profAt(window int64) Attach { return Attach{Prof: true, Window: window} }

// runPointCatching runs one point profiled at 100k-cycle windows,
// converting a simulation panic (e.g. the RW-LE_basic retry-storm
// watchdog) into a returned value so the caller can assert on the
// diagnostic.
func runPointCatching(cfg service.Config, scheme string) (m *obs.ServiceMetrics, prof *obs.Profile, err error, panicked any) {
	defer func() { panicked = recover() }()
	var o *obs.Observers
	m, _, o, err = service.RunPointObserved(cfg, scheme, SchemeFactory(scheme), nil, profAt(100_000))
	if o != nil {
		prof = o.Profile
	}
	return
}

// profTestConfig returns a small open-system point for profiler tests.
func profTestConfig(t *testing.T, workload string) (service.Config, float64) {
	t.Helper()
	spec, err := DefaultServeSpec(workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Base
	cfg.Servers = 4
	cfg.Requests = 150
	return cfg, spec.Rates[3] // the knee rate: contention without full overload
}

// TestCycleConservationAllSchemes pins the tentpole invariant on every
// scheme × workload: the attributed cycles sum exactly to
// CPUs × sim_cycles, per CPU and per window.
//
// RW-LE_basic has no capacity fallback (Algorithm 1), so on workloads
// whose write sections overflow the HTM budget (kyoto, tpcc) the run must
// *fail fast* through the retry-storm watchdog rather than livelock; those
// points assert the diagnostic instead of the conservation invariant.
func TestCycleConservationAllSchemes(t *testing.T) {
	for _, wl := range ServeWorkloads() {
		cfg, rate := profTestConfig(t, wl)
		cfg.Arrivals.RatePerSec = rate
		for _, scheme := range AllSchemes() {
			m, prof, err, panicked := runPointCatching(cfg, scheme)
			if panicked != nil {
				msg := fmt.Sprint(panicked)
				if scheme == "RW-LE_basic" && strings.Contains(msg, "livelocked") {
					continue // the watchdog fired fast with its diagnostic, as designed
				}
				t.Fatalf("%s/%s: panic: %v", wl, scheme, panicked)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, scheme, err)
			}
			rep := prof.Report(scheme, wl)
			got, want := rep.Cycles.Conservation()
			if got != want {
				t.Errorf("%s/%s: attributed %d cycles, want CPUs×sim_cycles = %d (diff %d)",
					wl, scheme, got, want, got-want)
			}
			if exp := int64(cfg.Servers) * m.MakespanCycles; want != exp {
				t.Errorf("%s/%s: conservation target %d != servers×makespan %d", wl, scheme, want, exp)
			}
			// Per-CPU rows each cover the full run.
			for id, row := range rep.Cycles.PerCPU {
				var sum int64
				for _, v := range row {
					sum += v
				}
				if sum != m.MakespanCycles {
					t.Errorf("%s/%s: cpu %d attributed %d, want makespan %d", wl, scheme, id, sum, m.MakespanCycles)
				}
			}
			// Window cells sum back to the category totals.
			winSum := make([]int64, obs.NumCycleCats)
			for _, win := range rep.Cycles.Windows {
				for c, v := range win.Cycles {
					winSum[c] += v
				}
			}
			for c := range winSum {
				if winSum[c] != rep.Cycles.Totals[c] {
					t.Errorf("%s/%s: window sum for %s = %d, want total %d",
						wl, scheme, obs.CycleCat(c), winSum[c], rep.Cycles.Totals[c])
				}
			}
			// A served point must attribute some useful work.
			if rep.Cycles.Totals[obs.CatUseful]+rep.Cycles.Totals[obs.CatFallback] == 0 {
				t.Errorf("%s/%s: no useful or fallback cycles attributed", wl, scheme)
			}
		}
	}
}

// TestBasicWatchdogFailsFast pins the retry-storm watchdog: RW-LE_basic
// on a workload whose write sections overflow the HTM budget must die
// quickly with the livelock diagnostic, not spin to the virtual deadline.
func TestBasicWatchdogFailsFast(t *testing.T) {
	cfg, rate := profTestConfig(t, "kyoto")
	cfg.Arrivals.RatePerSec = rate
	_, _, _, panicked := runPointCatching(cfg, "RW-LE_basic")
	if panicked == nil {
		t.Fatal("RW-LE_basic survived kyoto; the capacity-livelock watchdog never fired")
	}
	msg := fmt.Sprint(panicked)
	for _, want := range []string{"RW-LE_basic", "livelocked", "persistent aborts", "Algorithm 2"} {
		if !strings.Contains(msg, want) {
			t.Errorf("watchdog diagnostic %q missing %q", msg, want)
		}
	}
}

// TestProfilerZeroCost pins the zero-cost guarantee: a profiled point
// reports byte-identical service metrics — including sim_cycles — to the
// same point run bare.
func TestProfilerZeroCost(t *testing.T) {
	for _, wl := range ServeWorkloads() {
		cfg, rate := profTestConfig(t, wl)
		cfg.Arrivals.RatePerSec = rate
		for _, scheme := range []string{"RW-LE_OPT", "HLE", "SGL"} {
			plain, _, err := service.RunPoint(cfg, scheme, SchemeFactory(scheme), nil)
			if err != nil {
				t.Fatal(err)
			}
			profiled, _, _, err := service.RunPointObserved(cfg, scheme, SchemeFactory(scheme), nil, profAt(250_000))
			if err != nil {
				t.Fatal(err)
			}
			if plain.MakespanCycles != profiled.MakespanCycles {
				t.Errorf("%s/%s: sim_cycles changed under profiling: %d vs %d",
					wl, scheme, plain.MakespanCycles, profiled.MakespanCycles)
			}
			if !reflect.DeepEqual(plain, profiled) {
				t.Errorf("%s/%s: service metrics changed under profiling", wl, scheme)
			}
		}
	}
}

// TestProfilerWindowInvariance pins that the window width only re-buckets
// the series: category totals are identical across window sizes.
func TestProfilerWindowInvariance(t *testing.T) {
	cfg, rate := profTestConfig(t, "hashmap")
	cfg.Arrivals.RatePerSec = rate
	var ref []int64
	for _, window := range []int64{50_000, 250_000, 1 << 62} {
		_, _, o, err := service.RunPointObserved(cfg, "RW-LE_OPT", SchemeFactory("RW-LE_OPT"), nil, profAt(window))
		if err != nil {
			t.Fatal(err)
		}
		rep := o.Profile.Report("RW-LE_OPT", "hashmap")
		if ref == nil {
			ref = rep.Cycles.Totals
			continue
		}
		if !reflect.DeepEqual(ref, rep.Cycles.Totals) {
			t.Errorf("window %d: totals %v != reference %v", window, rep.Cycles.Totals, ref)
		}
	}
}

// TestTimelineSubscription pins the live-subscription contract: windows
// arrive in index order, each exactly once, and the subscribed
// event-derived series matches the final report's. The subscriber must
// be in place before the run, so the test installs its own profile.
func TestTimelineSubscription(t *testing.T) {
	cfg, rate := profTestConfig(t, "hashmap")
	cfg.Arrivals.RatePerSec = rate
	prof := obs.NewProfile(100_000, len(cfg.Classes))
	var live []obs.TimelineWindow
	prof.Timeline.Subscribe(func(w obs.TimelineWindow) { live = append(live, w) })
	var mach *machine.Machine
	observe := func(m *machine.Machine) {
		mach = m
		prof.Start(m, cfg.Servers)
		m.SetTracer(prof)
	}
	if _, _, _, err := service.RunPointObserved(cfg, "RW-LE_OPT", SchemeFactory("RW-LE_OPT"), observe, Attach{}); err != nil {
		t.Fatal(err)
	}
	prof.Finish(mach.Now())
	rep := prof.Report("RW-LE_OPT", "hashmap")
	if len(live) != len(rep.Timeline.Windows) {
		t.Fatalf("subscriber saw %d windows, report has %d", len(live), len(rep.Timeline.Windows))
	}
	for i, w := range live {
		if w.Index != i {
			t.Fatalf("window %d delivered with index %d (out of order or duplicated)", i, w.Index)
		}
		final := rep.Timeline.Windows[i]
		if w.TxBegins != final.TxBegins || w.CSEnds != final.CSEnds ||
			!reflect.DeepEqual(w.Commits, final.Commits) || !reflect.DeepEqual(w.Aborts, final.Aborts) {
			t.Errorf("window %d: live event series differs from final report", i)
		}
	}
}

// TestTimelineQueueAccounting pins the request-derived series: arrivals
// split into drops and dequeues, dones match dequeues, and the depth and
// in-flight prefix sums return to zero at the end of a drained run.
func TestTimelineQueueAccounting(t *testing.T) {
	cfg, rate := profTestConfig(t, "hashmap")
	cfg.Arrivals.RatePerSec = rate
	_, _, o, err := service.RunPointObserved(cfg, "SGL", SchemeFactory("SGL"), nil, profAt(100_000))
	if err != nil {
		t.Fatal(err)
	}
	rep := o.Profile.Timeline.Report()
	var arr, deq, drop, done int64
	for _, w := range rep.Windows {
		arr += w.Arrivals
		deq += w.Dequeues
		drop += w.Drops
		done += w.Dones
	}
	if arr != int64(cfg.Requests) {
		t.Errorf("timeline arrivals %d, want %d", arr, cfg.Requests)
	}
	if arr != deq+drop || deq != done {
		t.Errorf("queue flow unbalanced: arrivals=%d dequeues=%d drops=%d dones=%d", arr, deq, drop, done)
	}
	last := rep.Windows[len(rep.Windows)-1]
	if last.QueueDepthEnd != 0 || last.InFlightEnd != 0 {
		t.Errorf("drained run ends with depth=%d in-flight=%d, want 0/0",
			last.QueueDepthEnd, last.InFlightEnd)
	}
}

// TestRunProfDeterministic pins byte-identical profile reports across runs
// and worker counts.
func TestRunProfDeterministic(t *testing.T) {
	spec, err := DefaultServeSpec("hashmap")
	if err != nil {
		t.Fatal(err)
	}
	spec.Base.Requests = 200
	spec.Base.Servers = 4
	spec.Schemes = []string{"RW-LE_OPT", "HLE", "SGL"}
	spec.Rates = spec.Rates[3:4]

	render := func(workers int) (string, string) {
		_, rep := runReport(t, spec, Attach{Prof: true}, workers, true)
		js, txt := renderReport(t, rep)
		return txt, js
	}
	t1, j1 := render(1)
	t2, j2 := render(4)
	if t1 != t2 {
		t.Error("profile text differs between -j1 and -j4")
	}
	if j1 != j2 {
		t.Error("profile JSON differs between -j1 and -j4")
	}
	t3, j3 := render(1)
	if t1 != t3 || j1 != j3 {
		t.Error("profile output differs between identical runs")
	}
}
