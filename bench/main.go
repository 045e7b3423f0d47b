// Command bench is the simulator's host-performance benchmark. It drives
// the simulator from outside, through the public per-point functions
// harness.RunHashmap, service.RunPoint and shard.Run, on four workloads,
// and reports host-speed-adjusted wall time, set-up time and peak memory
// per workload, plus host time by module and exact work counters per
// layer. Every repetition runs in a fresh child process, one at a time.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh                        # all workloads, seed 1, ~2 min
//	bash bench/run.sh -seed 7 -o out.json    # another seed, report to a file
//	bash bench/run.sh -workload serve-knee -seed 3 -seconds 25 -trace 0
//	bash bench/run.sh -record -seed 1        # re-record bench/expected.json
//
// The one-workload form is the BENCHMARK.json contract: it measures for
// about -seconds and prints, as its last line, one JSON object with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// See bench/README.md for the workloads, metrics and A/B protocol.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Pass sizes of the all-workload run.
const (
	timedRounds  = 5
	tracedRounds = 3
)

// minReps is the fewest rounds of untraced reps and set-up probes a
// one-workload -trace 0 run makes, even past its -seconds budget.
const minReps = 3

// Deadlines for the children of a run: a one-workload run must end within
// the 180 s the BENCHMARK.json contract allows; the other forms only guard
// against a hung child.
const (
	oneWorkloadLimit = 170 * time.Second
	otherLimit       = 15 * time.Minute
)

// childProcs is the GOMAXPROCS of every rep. The simulator runs on one
// goroutine; with a second P the collector ran on the other vCPU, whose
// contention the reference kernel cannot see (shard-256's wall time
// correlated 0.44 with ref_s at GOMAXPROCS=2, 0.75 at 1, for the same
// median).
const childProcs = 1

func main() {
	wlName := flag.String("workload", "", "run one workload (the BENCHMARK.json contract); empty runs all")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "one-workload run: measuring budget in seconds")
	trace := flag.Int("trace", 0, "one-workload run: 0 reports end-to-end metrics, 1 per-layer metrics")
	out := flag.String("o", "", "all-workload run: also write the report as JSON to this file")
	record := flag.Bool("record", false, "rewrite this seed's digests in "+expectedPath+" instead of measuring")
	child := flag.String("child", "", "internal: run one rep of this mode in this process")
	flag.Parse()

	if *child != "" {
		r, err := runChild(*child, *wlName, *seed)
		if err != nil {
			fatal(err)
		}
		data, err := json.Marshal(r)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}

	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	d := &driver{exe: exe, seed: *seed, deadline: time.Now().Add(otherLimit)}
	switch {
	case *record:
		err = d.record()
	case *wlName != "":
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
		}
		d.deadline = time.Now().Add(oneWorkloadLimit)
		err = d.runOne(*wlName, *seconds, *trace == 1)
	default:
		err = d.runAll(*out)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// driver runs reps as child processes of this executable, one at a time.
type driver struct {
	exe      string
	seed     uint64
	deadline time.Time
}

// rep runs one child and returns its record.
func (d *driver) rep(mode, wl string) (*rep, error) {
	ctx, cancel := context.WithDeadline(context.Background(), d.deadline)
	defer cancel()
	args := []string{"-child", mode, "-seed", strconv.FormatUint(d.seed, 10)}
	if wl != "" {
		args = append(args, "-workload", wl)
	}
	cmd := exec.CommandContext(ctx, d.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s rep of %s: %w", mode, wl, err)
	}
	var r rep
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("%s rep of %s: bad record: %w", mode, wl, err)
	}
	return &r, nil
}

// runOne is the BENCHMARK.json contract: one workload for about seconds,
// reporting end-to-end (trace false) or per-layer (trace true) metrics.
func (d *driver) runOne(name string, seconds float64, trace bool) error {
	if _, err := findWorkload(name); err != nil {
		return err
	}
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	took := map[string]time.Duration{}
	var reps []*rep
	run := func(mode string) (*rep, error) {
		t0 := time.Now()
		r, err := d.rep(mode, name)
		if err != nil {
			return nil, err
		}
		took[mode] = time.Since(t0)
		return r, nil
	}
	// fits reports whether the modes' last durations still fit the budget.
	fits := func(modes ...string) bool {
		need := time.Since(start)
		for _, m := range modes {
			need += took[m]
		}
		return need <= budget && need <= oneWorkloadLimit/2
	}

	// A run is rounds of one rep of each mode, until the budget is spent,
	// so a slow phase of the host hits every sample: untraced reps and
	// set-up probes for -trace 0; untraced, profiled and traced reps for
	// -trace 1, where more rounds steady wall_s, the profile's shares and
	// the trace overhead.
	var layers *rep
	round, minRounds := []string{modeTime, modeSetup}, minReps
	if trace {
		if layers, err = run(modeLayers); err != nil {
			return err
		}
		round, minRounds = []string{modeTime, modeProfile, modeTrace}, 1
	}
	for n := 0; n < minRounds || fits(round...); n++ {
		for _, mode := range round {
			r, err := run(mode)
			if err != nil {
				return err
			}
			reps = append(reps, r)
		}
	}

	s := summarize(name, d.seed, reps, layers, exp.Seeds[seedKey(d.seed)])
	defs, got := endToEnd, s.EndToEnd
	if trace {
		defs, got = perLayer, s.PerLayer
	}
	printSummary(os.Stdout, s, defs, got)
	metrics := map[string]metric{}
	for _, def := range defs {
		metrics[def.Name] = got[def.Name]
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(s.Problems) == 0, s.Attempted, s.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(s.Problems) > 0 {
		return fmt.Errorf("%s: %d problem(s), see above", name, len(s.Problems))
	}
	return nil
}

// report is the all-workload run's output file.
type report struct {
	GoVersion   string     `json:"go_version"`
	NumCPU      int        `json:"num_cpu"`
	GOMAXPROCS  int        `json:"gomaxprocs"`
	Seed        uint64     `json:"seed"`
	RefNominalS float64    `json:"ref_nominal_s"`
	Seconds     float64    `json:"seconds"`
	Attempted   int        `json:"attempted"`
	Failed      int        `json:"failed"`
	FailFrac    float64    `json:"fail_frac"`
	Workloads   []*summary `json:"workloads"`
}

// runAll runs every workload: timedRounds rounds of untraced reps and
// set-up probes, then tracedRounds traced rounds, one profiled round and
// the layer microbenchmarks. Each round visits the workloads in an order
// rotated by one from the last, so a slow phase of the host falls on
// every workload rather than on one workload's whole sample.
func (d *driver) runAll(outPath string) error {
	exp, err := loadExpected()
	if err != nil {
		return err
	}
	start := time.Now()
	reps := map[string][]*rep{}
	round := func(r int, modes ...string) error {
		for i := range workloads {
			w := workloads[(i+r)%len(workloads)].name
			for _, mode := range modes {
				fmt.Fprintf(os.Stderr, "bench: %-8s %s\n", mode, w)
				rp, err := d.rep(mode, w)
				if err != nil {
					return err
				}
				reps[w] = append(reps[w], rp)
			}
		}
		return nil
	}
	for r := 0; r < timedRounds; r++ {
		if err := round(r, modeTime, modeSetup); err != nil {
			return err
		}
	}
	for r := 0; r < tracedRounds; r++ {
		if err := round(r, modeTrace); err != nil {
			return err
		}
	}
	if err := round(0, modeProfile); err != nil {
		return err
	}
	layers, err := d.rep(modeLayers, "")
	if err != nil {
		return err
	}

	rep := &report{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: childProcs,
		Seed: d.seed, RefNominalS: refNominalS,
	}
	for _, w := range workloads {
		s := summarize(w.name, d.seed, reps[w.name], layers, exp.Seeds[seedKey(d.seed)])
		rep.Workloads = append(rep.Workloads, s)
		rep.Attempted += s.Attempted
		rep.Failed += s.Failed
		printSummary(os.Stdout, s, endToEnd, s.EndToEnd)
		printMetrics(os.Stdout, perLayer, s.PerLayer)
	}
	rep.FailFrac = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	rep.Seconds = time.Since(start).Seconds()
	fmt.Printf("\nattempted %d points, failed %d (fail_frac %g), %.1f s\n", rep.Attempted, rep.Failed, rep.FailFrac, rep.Seconds)
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	var problems int
	for _, s := range rep.Workloads {
		problems += len(s.Problems)
	}
	if problems > 0 {
		return fmt.Errorf("%d problem(s), see above", problems)
	}
	return nil
}

// printSummary prints a workload's metrics by name with their units, the
// raw and adjusted quartiles behind the host-time metrics, and any
// problem found.
func printSummary(w io.Writer, s *summary, defs []metricDef, got map[string]metric) {
	fmt.Fprintf(w, "\n# %s (seed %d): sim_cycles %d, %d points attempted, %d failed\n",
		s.Workload, s.Seed, s.SimCycles, s.Attempted, s.Failed)
	printMetrics(w, defs, got)
	names := make([]string, 0, len(s.Spreads))
	for k := range s.Spreads {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		sp := s.Spreads[k]
		fmt.Fprintf(w, "  %-28s n=%-3d q1 %.6g  median %.6g  q3 %.6g\n", "("+k+")", sp.N, sp.Q1, sp.Median, sp.Q3)
	}
	for _, p := range s.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

func printMetrics(w io.Writer, defs []metricDef, got map[string]metric) {
	for _, def := range defs {
		m, ok := got[def.Name]
		v := "missing"
		if ok {
			v = strconv.FormatFloat(m.Value, 'g', 6, 64)
		}
		fmt.Fprintf(w, "  %-34s %14s %s\n", def.Name, v, def.Unit)
	}
}

// expectedPath holds the recorded per-point digests and sim_cycles, by
// seed, relative to the repository root.
const expectedPath = "bench/expected.json"

type expectedWorkload struct {
	SimCycles int64             `json:"sim_cycles"`
	Points    map[string]string `json:"points"`
}

type expectedSeed map[string]expectedWorkload

type expectedFile struct {
	Seeds map[string]expectedSeed `json:"seeds"`
}

func seedKey(seed uint64) string { return strconv.FormatUint(seed, 10) }

func loadExpected() (*expectedFile, error) {
	data, err := os.ReadFile(expectedPath)
	if err != nil {
		return nil, fmt.Errorf("read expected digests (run from the repository root): %w", err)
	}
	var e expectedFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	if e.Seeds == nil {
		e.Seeds = map[string]expectedSeed{}
	}
	return &e, nil
}

// record runs one untraced rep of every workload and rewrites this seed's
// entry in expectedPath. Only a change that declares a behaviour change
// may re-record seeds that are already there.
func (d *driver) record() error {
	exp, err := loadExpected()
	if errors.Is(err, fs.ErrNotExist) {
		exp, err = &expectedFile{Seeds: map[string]expectedSeed{}}, nil
	}
	if err != nil {
		return err
	}
	es := expectedSeed{}
	for _, w := range workloads {
		r, err := d.rep(modeTime, w.name)
		if err != nil {
			return err
		}
		ew := expectedWorkload{SimCycles: r.SimCycles, Points: map[string]string{}}
		for _, p := range r.Points {
			if p.Error != "" {
				return fmt.Errorf("%s: %s: %s", w.name, p.Name, p.Error)
			}
			ew.Points[p.Name] = p.Digest
		}
		es[w.name] = ew
		fmt.Printf("%s: sim_cycles %d, %d points\n", w.name, r.SimCycles, len(r.Points))
	}
	exp.Seeds[seedKey(d.seed)] = es
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(expectedPath, append(data, '\n'), 0o644)
}
