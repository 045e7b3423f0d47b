package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"hrwle/internal/htm"
	"hrwle/internal/locks"
	"hrwle/internal/rwlock"
)

func sglFactory() rwlock.Factory {
	return func(s *htm.System) rwlock.Lock { return locks.NewSGL(s) }
}

func hleFactory() rwlock.Factory {
	return func(s *htm.System) rwlock.Lock { return locks.NewHLE(s) }
}

// pointJSON runs a point and returns its metrics serialized to JSON.
func pointJSON(t *testing.T, cfg Config, scheme string, mk rwlock.Factory) []byte {
	t.Helper()
	m, _, err := RunPoint(cfg, scheme, mk, bounded)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunPointDeterministic: two runs of the same point produce
// byte-identical JSON — the double-run gate CI enforces end-to-end.
func TestRunPointDeterministic(t *testing.T) {
	for _, wl := range []string{"hashmap", "kyoto", "tpcc"} {
		cfg := testConfig(wl)
		cfg.Requests = 300
		cfg.Arrivals.RatePerSec = 3e5
		a := pointJSON(t, cfg, "SGL", sglFactory())
		b := pointJSON(t, cfg, "SGL", sglFactory())
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two identical runs produced different metrics JSON", wl)
		}
	}
}

// TestRunPointConservation: every generated request is exactly one of
// served or dropped, and completion ordering fields are consistent.
func TestRunPointConservation(t *testing.T) {
	cfg := testConfig("hashmap")
	cfg.Arrivals.RatePerSec = 8e6 // oversaturated: force drops
	cfg.QueueCap = 32
	m, reqs, err := RunPoint(cfg, "SGL", sglFactory(), bounded)
	if err != nil {
		t.Fatal(err)
	}
	served, dropped := int64(0), int64(0)
	for i := range reqs {
		r := &reqs[i]
		if r.Dropped {
			dropped++
			continue
		}
		served++
		if r.DequeueAt < r.ArriveAt {
			t.Fatalf("request %d dequeued at %d before arriving at %d", i, r.DequeueAt, r.ArriveAt)
		}
		if r.DoneAt <= r.DequeueAt {
			t.Fatalf("request %d done at %d not after dequeue at %d", i, r.DoneAt, r.DequeueAt)
		}
	}
	if dropped == 0 {
		t.Fatal("oversaturated tiny-cap point dropped nothing")
	}
	if served != m.Served || dropped != m.Dropped {
		t.Fatalf("metrics disagree with schedule: served %d/%d, dropped %d/%d",
			m.Served, served, m.Dropped, dropped)
	}
	if served+dropped != int64(len(reqs)) {
		t.Fatalf("conservation broken: %d + %d != %d", served, dropped, len(reqs))
	}
}

// TestPriorityOrdering: under saturation the high-priority class must see
// far lower queue wait than the low-priority class.
func TestPriorityOrdering(t *testing.T) {
	cfg := testConfig("hashmap")
	cfg.Requests = 1500
	cfg.Arrivals.RatePerSec = 6e6 // past the SGL knee
	m, _, err := RunPoint(cfg, "SGL", sglFactory(), bounded)
	if err != nil {
		t.Fatal(err)
	}
	hi := m.Classes[0].QueueWait.P99Cycles
	lo := m.Classes[len(m.Classes)-1].QueueWait.P99Cycles
	if hi*4 > lo {
		t.Fatalf("priority inversion: interactive p99 wait %.0f vs batch %.0f cycles", hi, lo)
	}
}

// TestSaturationKnee: as offered load crosses the capacity of the scheme,
// achieved throughput flattens while low-load points keep up with offered.
func TestSaturationKnee(t *testing.T) {
	achieved := make([]float64, 0, 3)
	for _, rate := range []float64{4e5, 2.4e6, 9e6} {
		cfg := testConfig("hashmap")
		cfg.Requests = 1500
		cfg.Arrivals.RatePerSec = rate
		m, _, err := RunPoint(cfg, "SGL", sglFactory(), bounded)
		if err != nil {
			t.Fatal(err)
		}
		achieved = append(achieved, m.AchievedPerSec)
	}
	if achieved[0] < 4e5*0.95 {
		t.Errorf("below the knee achieved %.0f/s lags offered 400000/s", achieved[0])
	}
	// Past saturation, tripling the offered load must not find much more
	// capacity.
	if achieved[2] > achieved[1]*1.25 {
		t.Errorf("no knee: achieved kept climbing %.0f -> %.0f past saturation", achieved[1], achieved[2])
	}
}

// TestWarmupExcluded: measured counts exclude the warmup prefix but
// served/dropped cover the whole schedule.
func TestWarmupExcluded(t *testing.T) {
	cfg := testConfig("hashmap")
	m, _, err := RunPoint(cfg, "SGL", sglFactory(), bounded)
	if err != nil {
		t.Fatal(err)
	}
	var measured, served int64
	for _, c := range m.Classes {
		measured += c.Measured
		served += c.Served
	}
	if served != int64(cfg.Requests) || m.Dropped != 0 {
		t.Fatalf("expected all %d served at low load, got served=%d dropped=%d", cfg.Requests, served, m.Dropped)
	}
	// With nothing dropped, exactly the warmup prefix goes unmeasured.
	if want := served - int64(warmupFrac*float64(served)); measured != want {
		t.Fatalf("warmup exclusion wrong: measured %d of %d served, want %d", measured, served, want)
	}
}

// TestCommitPathAttribution: under a speculative scheme requests resolve
// to a commit path and the per-path split accounts for the measured set.
func TestCommitPathAttribution(t *testing.T) {
	cfg := testConfig("hashmap")
	m, _, err := RunPoint(cfg, "HLE", hleFactory(), bounded)
	if err != nil {
		t.Fatal(err)
	}
	sawPath := false
	for _, c := range m.Classes {
		var byPath int64
		for _, p := range c.ByPath {
			byPath += p.Served
			sawPath = true
		}
		if byPath > c.Measured {
			t.Fatalf("class %s: path split %d exceeds measured %d", c.Class, byPath, c.Measured)
		}
	}
	if !sawPath {
		t.Fatal("no commit-path attribution under HLE")
	}
}

// TestMMPPRun: the bursty process runs end to end and serves everything
// at moderate load.
func TestMMPPRun(t *testing.T) {
	cfg := testConfig("hashmap")
	cfg.Arrivals.Process = MMPP
	cfg.Arrivals.RatePerSec = 1e6
	m, _, err := RunPoint(cfg, "SGL", sglFactory(), bounded)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served == 0 || m.Process != "mmpp" {
		t.Fatalf("mmpp run broken: served=%d process=%q", m.Served, m.Process)
	}
}
