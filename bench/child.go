package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// Rep modes: what one child process measures.
const (
	modeTime    = "time"    // untraced run: wall time, exact counters, memory
	modeSetup   = "setup"   // set-up probe: host time from each point call to its first event
	modeTrace   = "trace"   // counting tracer installed: event counters
	modeProfile = "profile" // CPU profile: host time by module
	modeLayers  = "layers"  // layer microbenchmarks
)

// rep is the record one child process prints: one mode of one workload at
// one seed. Times are raw host seconds; the parent adjusts them.
type rep struct {
	Mode      string             `json:"mode"`
	RefS      float64            `json:"ref_s"`
	WallS     float64            `json:"wall_s"`
	SetupS    float64            `json:"setup_s,omitempty"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	SimCycles int64              `json:"sim_cycles"`
	Points    []pointRecord      `json:"points,omitempty"`
	Counters  map[string]float64 `json:"counters,omitempty"`
	Profile   map[string]float64 `json:"profile,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
}

type pointRecord struct {
	Name   string `json:"name"`
	Digest string `json:"digest,omitempty"`
	Error  string `json:"error,omitempty"`
}

// runChild executes one rep in this process.
func runChild(mode, wlName string, seed uint64) (*rep, error) {
	r := &rep{Mode: mode}
	if mode == modeLayers {
		r.Counters, r.Failures = runLayers()
		r.PeakRSSMB = peakRSSMB()
		return r, nil
	}
	wl, err := findWorkload(wlName)
	if err != nil {
		return nil, err
	}
	switch mode {
	case modeTime, modeTrace:
		k := newRefKernel()
		defer k.close()
		runPoints(r, wl.points(seed), mode, k)
	case modeSetup:
		k := newRefKernel()
		defer k.close()
		runSetupPasses(r, wl.points(seed), k)
	case modeProfile:
		// No reference-kernel slices here: they would show up in the
		// profile. The runtime samples at the first rate it is given;
		// StartCPUProfile then asks for its default 100 Hz, which the
		// runtime refuses with a warning on stderr.
		var prof bytes.Buffer
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
		runPoints(r, wl.points(seed), mode, nil)
		pprof.StopCPUProfile()
		if r.Profile, err = profileShares(prof.Bytes()); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown rep mode %q", mode)
	}
	r.PeakRSSMB = peakRSSMB()
	return r, nil
}

// runPoints runs pts one after another in the given mode and records the
// wall time, each point's digest or error, and the rep's counters in r.
//
// Before each point, and after the last, the rep pauses its clock. The
// pause collects the previous point's garbage, so every point starts from
// a clean heap as it would in a one-point process: without it the peak
// RSS depended on whether the collector ran before the next point's
// machine was allocated, and ranged from 167 to 255 MiB across reps of
// one serve-knee seed. With a reference kernel k the pause also runs
// refSlicesPerPause kernel slices, and r.RefS becomes the median slice
// time.
func runPoints(r *rep, pts []point, mode string, k *refKernel) {
	c := counters{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var paused time.Duration
	pause := func() {
		t := time.Now()
		runtime.GC()
		if k != nil {
			for i := 0; i < refSlicesPerPause; i++ {
				k.slice()
			}
		}
		paused += time.Since(t)
	}
	start := time.Now()
	for _, p := range pts {
		pause()
		var m *machine.Machine
		var tr *countTracer
		probe := &setupProbe{}
		called := time.Now()
		observe := func(mm *machine.Machine) {
			m = mm
			switch mode {
			case modeTrace:
				tr = newCountTracer()
				mm.SetTracer(tr)
			case modeSetup:
				mm.SetTracer(probe)
			}
		}
		o, err := runPoint(p, observe)
		if mode == modeSetup {
			if err == errSetupReached && !probe.at.IsZero() {
				r.SetupS += probe.at.Sub(called).Seconds()
				r.Points = append(r.Points, pointRecord{Name: p.name})
				continue
			}
			if err == nil {
				err = fmt.Errorf("point ran to completion without emitting an event")
			}
		}
		if err != nil {
			r.Points = append(r.Points, pointRecord{Name: p.name, Error: err.Error()})
			continue
		}
		r.Points = append(r.Points, pointRecord{Name: p.name, Digest: o.digest})
		r.SimCycles += o.simCycles
		c.addOutcome(o)
		c.addMachine(m)
		if tr != nil {
			c.addTrace(tr)
		}
	}
	pause()
	r.WallS = (time.Since(start) - paused).Seconds()
	if k != nil {
		r.RefS = k.seconds()
	}
	runtime.ReadMemStats(&ms1)
	switch mode {
	case modeTime:
		c["runtime.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		c["runtime.num_gc"] = float64((ms1.NumGC - ms1.NumForcedGC) - (ms0.NumGC - ms0.NumForcedGC))
		r.Counters = c
	case modeTrace:
		r.Counters = c
	}
}

// setupProbeMin is how long a set-up probe keeps repeating set-up passes.
const setupProbeMin = 250 * time.Millisecond

// runSetupPasses repeats the set-up pass over pts until setupProbeMin has
// passed and records the median pass. fig5-hotline's whole set-up takes
// about 1 ms, in which a cold first point costs ten warm ones, so a
// single pass varied by a third between probes; the median of the ~30
// passes that fit is steady. Slower set-ups (fig4-capacity, shard-256)
// get one pass. Only the first pass runs kernel slices.
func runSetupPasses(r *rep, pts []point, k *refKernel) {
	var passes []float64
	for start := time.Now(); len(passes) == 0 || time.Since(start) < setupProbeMin; k = nil {
		var pass rep
		runPoints(&pass, pts, modeSetup, k)
		if k != nil {
			r.RefS = pass.RefS
		}
		r.Points = pass.Points
		passes = append(passes, pass.SetupS)
		if slices.ContainsFunc(pass.Points, func(p pointRecord) bool { return p.Error != "" }) {
			break
		}
	}
	r.SetupS = median(passes)
}

// errSetupReached reports that a set-up probe stopped its point at the
// first event, as intended.
var errSetupReached = errors.New("set-up probe reached the first event")

// runPoint runs one point, turning a panic (a failed invariant, the
// virtual-deadline watchdog, or the set-up probe's stop) into an error.
func runPoint(p point, observe func(*machine.Machine)) (o outcome, err error) {
	defer func() {
		if v := recover(); v != nil {
			if v == setupReached {
				err = errSetupReached
				return
			}
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return p.run(observe)
}

// counters accumulates a rep's exact work counters by metric name.
type counters map[string]float64

// abortNames are the metric suffixes of stats.AbortCause, in its order.
var abortNames = [stats.NumAbortCauses]string{
	"conflict_tx", "conflict_nontx", "capacity", "lock_busy", "rot_conflict", "rot_capacity", "explicit",
}

// commitNames are the metric suffixes of stats.CommitPath, in its order.
var commitNames = [stats.NumCommitPaths]string{"htm", "rot", "sgl", "uninstrumented"}

func (c counters) addOutcome(o outcome) {
	b := &o.b
	c["machine.sim_cycles"] += float64(o.simCycles)
	c["htm.tx_begins"] += float64(b.TxStarts)
	c["htm.commits"] += float64(b.Commits[stats.CommitHTM] + b.Commits[stats.CommitROT])
	for i, n := range b.Aborts {
		c["htm.aborts."+abortNames[i]] += float64(n)
	}
	for i, n := range b.Commits {
		c["core.commits."+commitNames[i]] += float64(n)
	}
	c["core.read_cs"] += float64(b.ReadCS)
	c["core.write_cs"] += float64(b.WriteCS)
	c["core.quiesce_wait_cycles"] += float64(b.QuiesceWait)
	c["workload.ops"] += float64(b.Ops)
	c["service.served"] += float64(o.served)
	c["service.dropped"] += float64(o.dropped)
	c["shard.switches"] += float64(o.switches)
	c["shard.cross_tx"] += float64(o.crossTx)
}

func (c counters) addMachine(m *machine.Machine) {
	for i := 0; i < m.Cfg.CPUs; i++ {
		k := &m.CPU(i).Counters
		c["machine.sim_accesses"] += float64(k.Reads + k.Writes + k.CASes)
	}
}

func (c counters) addTrace(t *countTracer) {
	var total int64
	for k, n := range t.kinds {
		total += n
		c["events."+machine.EventKind(k).String()] += float64(n)
	}
	c["machine.events"] += float64(total)
	c["machine.event_cpu_switches"] += float64(t.switches)
	c["machine.idle_events"] += float64(t.kinds[machine.EvIdle])
	c["machine.idle_cycles"] += float64(t.idleCycles)
	c["machine.lock_wait_events"] += float64(t.kinds[machine.EvLockWait])
	c["machine.lock_wait_cycles"] += float64(t.lockWaitCycles)
	c["htm.dooms"] += float64(t.kinds[machine.EvTxDoom])
	c["htm.suspends"] += float64(t.kinds[machine.EvTxSuspend])
	c["core.quiesce_windows"] += float64(t.kinds[machine.EvQuiesceStart])
	c["core.path_switches"] += float64(t.kinds[machine.EvPathSwitch])
}

// peakRSSMB returns this process's peak resident set size (VmHWM) in MiB,
// or 0 where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
