package obs_test

// Integration tests exercising the Collector against real RW-LE runs.
// They live in an external test package because internal/core must not
// import internal/obs (observability is strictly downstream of the
// simulated machinery).

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"hrwle/internal/core"
	"hrwle/internal/harness"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/service"
	"hrwle/internal/stats"
)

// runContended performs a deterministic contended RW-LE_PES run (writers go
// straight to ROT) and returns the finalized point metrics: CPU 0 writes a
// shared line inside long write sections while CPUs 1..n-1 run read sections
// over the same line, so reader arrivals doom the writer's suspended ROT.
func runContended(t *testing.T, seed uint64) (*obs.PointMetrics, int64) {
	t.Helper()
	collector, cycles := contended(seed, nil)
	return collector.Point(contendedThreads, 20, cycles, nil), cycles
}

const contendedThreads = 3

// contended runs runContended's scenario with a Collector attached, plus
// prof when non-nil, and returns the collector and the cycle count.
func contended(seed uint64, prof *obs.Profile) (*obs.Collector, int64) {
	const threads = contendedThreads
	m := machine.New(machine.Config{CPUs: threads, MemWords: 1 << 16, Seed: seed})
	sys := htm.NewSystem(m, htm.Config{})
	lock := core.New(sys, core.Pes())
	shared := m.AllocRawAligned(4)

	collector := obs.NewCollector()
	m.SetTracer(collector)
	if prof != nil {
		m.SetTracer(machine.MultiTracer{collector, prof})
		prof.Start(m, threads)
	}

	cycles := m.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		if c.ID == 0 {
			for i := 0; i < 10; i++ {
				lock.Write(th, func() {
					th.Store(shared, uint64(i))
					c.Tick(3_000) // linger so readers arrive mid-section
				})
				c.Tick(200)
			}
		} else {
			for i := 0; i < 40; i++ {
				lock.Read(th, func() { th.Load(shared) })
				c.Tick(500)
			}
		}
	})
	if prof != nil {
		prof.Finish(m.Now())
	}
	return collector, cycles
}

// TestConsumersAgree ties the decoder's consumers together on one closed
// RW-LE_PES run and one open-system serve point: the Collector's abort
// matrix equals the sum of the Timeline's per-window matrices, its span
// count per commit path equals the summed commits_by_path, its tx-begin
// count equals the summed tx_begins, and the cycle attribution conserves
// CPUs × cycles.
func TestConsumersAgree(t *testing.T) {
	t.Run("closed RW-LE_PES", func(t *testing.T) {
		prof := obs.NewProfile(20_000, 0)
		c, _ := contended(11, prof)
		checkAgree(t, c, prof)
	})
	t.Run("serve RW-LE_OPT", func(t *testing.T) {
		spec, err := harness.DefaultServeSpec("hashmap")
		if err != nil {
			t.Fatal(err)
		}
		cfg := spec.Base
		cfg.Servers, cfg.Requests = 4, 300
		cfg.Arrivals.RatePerSec = spec.Rates[3]
		_, _, o, err := service.RunPointObserved(cfg, "RW-LE_OPT", harness.SchemeFactory("RW-LE_OPT"), nil,
			obs.Attach{Metrics: true, Prof: true, Window: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		checkAgree(t, o.Collector, o.Profile)
	})
}

func checkAgree(t *testing.T, c *obs.Collector, prof *obs.Profile) {
	t.Helper()
	type cell struct {
		cause          string
		killer, victim int
	}
	want := map[cell]int64{}
	for _, m := range c.Matrix() {
		want[cell{m.Cause, m.Killer, m.Victim}] += m.Count
	}
	spans := map[string]int64{}
	for _, s := range c.Spans() {
		spans[s.Path] += s.Count
	}

	rep := prof.Report("", "")
	got := map[cell]int64{}
	commits := map[string]int64{}
	var begins int64
	for _, w := range rep.Timeline.Windows {
		for _, m := range w.Matrix {
			got[cell{m.Cause, m.Killer, m.Victim}] += m.Count
		}
		for p, n := range w.Commits {
			if n > 0 {
				commits[rep.Timeline.CommitPaths[p]] += n
			}
		}
		begins += w.TxBegins
	}

	if len(want) == 0 || len(spans) == 0 {
		t.Fatalf("run recorded %d matrix cells and %d span paths; the comparison needs both", len(want), len(spans))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("timeline matrix sum %v != collector matrix %v", got, want)
	}
	if !reflect.DeepEqual(commits, spans) {
		t.Errorf("timeline commits_by_path sum %v != collector spans per path %v", commits, spans)
	}
	if n := c.Counts[machine.EvTxBegin]; n != begins {
		t.Errorf("collector counted %d tx-begins, timeline %d", n, begins)
	}
	if got, want := rep.Cycles.Conservation(); got != want {
		t.Errorf("attributed %d cycles, want CPUs × cycles = %d", got, want)
	}
}

// TestReaderKillsSuspendedROT is the issue's acceptance scenario: on an
// RW-LE run the abort matrix must contain ROT-conflict cells whose killer
// is a reader CPU and whose victim is the writer (paper Fig. 2 causality —
// the reader arrives while the writer's ROT is suspended or quiescing, and
// the doom materializes at resume).
func TestReaderKillsSuspendedROT(t *testing.T) {
	p, _ := runContended(t, 11)
	found := false
	for _, cell := range p.AbortMatrix {
		if cell.Cause == stats.AbortROTConflict.String() && cell.Killer > 0 && cell.Victim == 0 {
			found = true
		}
		if cell.Victim != 0 && cell.Cause != stats.AbortLockBusy.String() {
			t.Errorf("unexpected speculation abort on a reader CPU: %+v", cell)
		}
	}
	if !found {
		t.Fatalf("no ROT-conflict cell with a reader killer and the writer victim; matrix = %+v",
			p.AbortMatrix)
	}
	if len(p.HotAddrs) == 0 {
		t.Error("contended run produced no conflict hot spots")
	}
}

// TestSpansCoverBothSides checks that the same run yields read-side spans
// (all Uninstrumented) and write-side spans whose counts match the sections
// executed, and that every span's latency histogram is internally coherent.
func TestSpansCoverBothSides(t *testing.T) {
	p, cycles := runContended(t, 11)
	var readN, writeN int64
	for _, s := range p.Spans {
		switch s.Side {
		case "read":
			readN += s.Count
			if s.Path != stats.CommitUninstrumented.String() {
				t.Errorf("read span on path %s", s.Path)
			}
		case "write":
			writeN += s.Count
		}
		var bucketTotal int64
		for _, b := range s.Latency.Buckets {
			bucketTotal += b.Count
		}
		if bucketTotal != s.Count || s.Latency.Count != s.Count {
			t.Errorf("span %s/%s: count %d, hist count %d, bucket total %d",
				s.Side, s.Path, s.Count, s.Latency.Count, bucketTotal)
		}
		if s.Latency.MaxCycles > cycles {
			t.Errorf("span %s/%s: max latency %d exceeds run length %d",
				s.Side, s.Path, s.Latency.MaxCycles, cycles)
		}
	}
	if readN != 80 { // 2 reader CPUs × 40 sections
		t.Errorf("read spans = %d, want 80", readN)
	}
	if writeN != 10 {
		t.Errorf("write spans = %d, want 10", writeN)
	}
	if p.Quiesce.Count == 0 {
		t.Error("RW-LE writers quiesced but no quiescence windows were recorded")
	}
}

// TestMetricsJSONDeterministicAcrossRuns re-runs the same seed end to end
// and requires byte-identical JSON — the property the CI determinism gate
// and EXPERIMENTS.md rely on.
func TestMetricsJSONDeterministicAcrossRuns(t *testing.T) {
	render := func() []byte {
		p, _ := runContended(t, 42)
		rm := &obs.RunMetrics{Figure: "it", Scheme: "RW-LE_PES", Points: []*obs.PointMetrics{p}}
		data, err := json.Marshal(rm)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(render(), render()) {
		t.Error("identical seeds produced different metrics JSON")
	}
}

// TestCollectorDoesNotPerturbRun installs a collector and requires the
// virtual-cycle count to match an untraced run exactly (tracing must be
// zero-cost in virtual time).
func TestCollectorDoesNotPerturbRun(t *testing.T) {
	run := func(trace bool) int64 {
		m := machine.New(machine.Config{CPUs: 2, MemWords: 1 << 16, Seed: 5})
		sys := htm.NewSystem(m, htm.Config{})
		lock := core.New(sys, core.Pes())
		shared := m.AllocRawAligned(4)
		if trace {
			m.SetTracer(obs.NewCollector())
		}
		return m.Run(2, func(c *machine.CPU) {
			th := sys.Thread(c.ID)
			for i := 0; i < 20; i++ {
				if c.ID == 0 {
					lock.Write(th, func() { th.Store(shared, uint64(i)) })
				} else {
					lock.Read(th, func() { th.Load(shared) })
				}
			}
		})
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("collector changed virtual time: %d vs %d cycles", a, b)
	}
}
