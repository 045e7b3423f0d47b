package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"hrwle/internal/machine"
)

// testConfig returns a small, fast point configuration.
func testConfig(workload string) Config {
	cfg := DefaultConfig(workload)
	cfg.Requests = 600
	cfg.Arrivals.RatePerSec = 2e6
	return cfg
}

// testDeadline is the deadline of every machine these tests build: a few
// times their largest makespan (TestSaturationKnee's 4e5 req/s point,
// 13.4M cycles), so a livelock fails its test in seconds instead of
// running to the machine's default of 1e14 cycles.
const testDeadline = 50_000_000

// bounded is the observe hook of every point these tests run: it gives
// the point's machine testDeadline.
func bounded(m *machine.Machine) { m.Cfg.Deadline = testDeadline }

// TestScheduleDeterministic: the same config yields a byte-identical
// schedule every time — the foundation of every other guarantee here.
func TestScheduleDeterministic(t *testing.T) {
	a, err := GenerateSchedule(testConfig("hashmap"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSchedule(testConfig("hashmap"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical configs produced different schedules")
	}

	// The schedule bytes of each arrival process, with keyed demand on, are
	// pinned across commits: the sha256 covers every request's arrival
	// time, class, write flag, work, footprint, seed and keys.
	for _, tc := range []struct {
		proc Process
		want string
	}{
		{Poisson, "47b2e6db61aab704d0776eb38bb4822a19621e7cfc1d489aab916d4599ef5b56"},
		{MMPP, "278e101fd808eb069e84aee31811fa3cde3215e60dade9f54c68105b9352d4eb"},
	} {
		cfg := testConfig("hashmap")
		cfg.Arrivals.Process = tc.proc
		cfg.Keys = KeyConfig{Universe: 4096, Skew: 0.9, CrossPct: 10}
		reqs, err := GenerateSchedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, r := range reqs {
			fmt.Fprintf(h, "%d %d %t %d %d %d %d %d\n",
				r.ArriveAt, r.Class, r.IsWrite, r.Work, r.Footprint, r.Seed, r.Key, r.Key2)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s schedule sha256 %s, want %s", tc.proc, got, tc.want)
		}
	}
}

// TestScheduleSeedSensitivity: a different seed changes the schedule (the
// stream is actually used).
func TestScheduleSeedSensitivity(t *testing.T) {
	cfg := testConfig("hashmap")
	a, _ := GenerateSchedule(cfg)
	cfg.Seed = 2
	b, _ := GenerateSchedule(cfg)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seed change did not change the schedule")
	}
}

// TestScheduleSorted: arrival times are nondecreasing and strictly
// positive, and every request has at least one operation.
func TestScheduleSorted(t *testing.T) {
	for _, proc := range []Process{Poisson, MMPP} {
		cfg := testConfig("hashmap")
		cfg.Arrivals.Process = proc
		reqs, err := GenerateSchedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prev := int64(0)
		for i, r := range reqs {
			if r.ArriveAt <= 0 || r.ArriveAt < prev {
				t.Fatalf("%s: arrival %d at %d not after %d", proc, i, r.ArriveAt, prev)
			}
			prev = r.ArriveAt
			if r.Footprint < 1 {
				t.Fatalf("%s: request %d has footprint %d", proc, i, r.Footprint)
			}
			if r.Class < 0 || r.Class >= len(cfg.Classes) {
				t.Fatalf("%s: request %d has class %d", proc, i, r.Class)
			}
		}
	}
}

// TestOpenLoopInvariant is the defining property of the open system:
// inflating every service-time parameter must leave the arrival stream
// (times, classes, write flags) untouched. In a closed loop this fails by
// construction — slower service means later arrivals.
func TestOpenLoopInvariant(t *testing.T) {
	base := testConfig("hashmap")
	slow := base
	slow.Classes = DefaultClasses()
	for i := range slow.Classes {
		slow.Classes[i].Work = Fixed(slow.Classes[i].Work.Mean * 100)
	}

	a, err := GenerateSchedule(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSchedule(slow)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ArriveAt != b[i].ArriveAt || a[i].Class != b[i].Class || a[i].IsWrite != b[i].IsWrite {
			t.Fatalf("request %d arrival stream changed under inflated service: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestClassSharesRespected: class assignment follows the configured
// shares within sampling tolerance.
func TestClassSharesRespected(t *testing.T) {
	cfg := testConfig("hashmap")
	cfg.Requests = 20000
	reqs, err := GenerateSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var counts [8]int
	for _, r := range reqs {
		counts[r.Class]++
	}
	for i, cl := range cfg.Classes {
		got := 100 * float64(counts[i]) / float64(len(reqs))
		want := float64(cl.Share)
		if got < want*0.85 || got > want*1.15 {
			t.Errorf("class %s: %.1f%% of arrivals, want ~%d%%", cl.Name, got, cl.Share)
		}
	}
}

// TestPoissonRate: the empirical arrival rate matches the configured one.
func TestPoissonRate(t *testing.T) {
	for _, proc := range []Process{Poisson, MMPP} {
		cfg := testConfig("hashmap")
		cfg.Requests = 30000
		cfg.Arrivals.Process = proc
		reqs, err := GenerateSchedule(cfg)
		if err != nil {
			t.Fatal(err)
		}
		span := reqs[len(reqs)-1].ArriveAt
		got := float64(len(reqs)) / (float64(span) / 3.5e9)
		want := cfg.Arrivals.RatePerSec
		// Counting arrivals over an arrival-bounded window length-biases
		// the estimate toward burst states, so MMPP gets a wider band.
		lo, hi := 0.9, 1.1
		if proc == MMPP {
			lo, hi = 0.8, 1.3
		}
		if got < want*lo || got > want*hi {
			t.Errorf("%s: empirical rate %.0f/s, configured %.0f/s", proc, got, want)
		}
	}
}

// TestQueueDropsAndConservation drives the queue directly: every request
// is either served (popped) or dropped, never both, and pops within a
// class come out in arrival order with higher classes first.
func TestQueueDropsAndConservation(t *testing.T) {
	reqs := []Request{
		{ArriveAt: 10, Class: 1},
		{ArriveAt: 20, Class: 0},
		{ArriveAt: 30, Class: 1},
		{ArriveAt: 40, Class: 0}, // arrives when queue is full → dropped
		{ArriveAt: 500, Class: 0},
	}
	q := newQueue(reqs, 3, 2, 1)

	// At t=45 the first three arrivals fill the cap-3 queue; the fourth is
	// dropped at its own arrival time.
	idx, ok := q.Pop(45)
	if !ok || idx != 1 {
		t.Fatalf("first pop = %d,%v; want the class-0 arrival (1)", idx, ok)
	}
	if !q.reqs[3].Dropped {
		t.Fatal("over-cap arrival was not dropped")
	}
	// Remaining class-1 requests come out FIFO.
	if idx, ok = q.Pop(46); !ok || idx != 0 {
		t.Fatalf("second pop = %d,%v; want 0", idx, ok)
	}
	if idx, ok = q.Pop(47); !ok || idx != 2 {
		t.Fatalf("third pop = %d,%v; want 2", idx, ok)
	}
	if _, ok = q.Pop(48); ok {
		t.Fatal("pop before the last arrival should report empty")
	}
	if next, more := q.NextArrival(); !more || next != 500 {
		t.Fatalf("nextArrival = %d,%v; want 500", next, more)
	}
	if idx, ok = q.Pop(500); !ok || idx != 4 {
		t.Fatalf("final pop = %d,%v; want 4", idx, ok)
	}
	if _, more := q.NextArrival(); more || q.queued != 0 {
		t.Fatal("queue not drained after serving everything")
	}
	served := 0
	for i := range q.reqs {
		if !q.reqs[i].Dropped {
			served++
		}
	}
	if served+int(q.dropped) != len(reqs) || q.dropped != 1 {
		t.Fatalf("conservation broken: served %d + dropped %d != %d", served, q.dropped, len(reqs))
	}
}

// TestBadConfigs: invalid configurations are rejected, not defaulted.
func TestBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Arrivals.RatePerSec = 0 },
		func(c *Config) { c.Arrivals.RatePerSec = math.NaN() },
		func(c *Config) { c.Arrivals.RatePerSec = math.Inf(1) },
		func(c *Config) { c.Arrivals.RatePerSec = 1e-300 },       // mean gap past int64 cycles
		func(c *Config) { c.Classes[0].Share = 50 },              // shares no longer sum to 100
		func(c *Config) { c.Classes[1].Work = Pareto(100, 0.5) }, // alpha <= 1
		func(c *Config) { c.Servers = machine.MaxCPUs + 1 },
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.Requests = 0 },
		func(c *Config) { c.QueueCap = 0 },
		func(c *Config) { c.Seed = 0 },
		func(c *Config) { c.Classes = nil },
		func(c *Config) { c.Keys = KeyConfig{Universe: 1 << 12, Skew: -0.5} },
		func(c *Config) { c.Keys = KeyConfig{Universe: 1 << 12, Skew: math.NaN()} },
		func(c *Config) { c.Keys = KeyConfig{Universe: 1 << 12, Skew: math.Inf(1)} },
	}
	for i, mutate := range bad {
		cfg := testConfig("hashmap")
		cfg.Classes = DefaultClasses()
		mutate(&cfg)
		if _, err := GenerateSchedule(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestDistMeans: sampled means land near the configured means.
func TestDistMeans(t *testing.T) {
	dists := []Dist{Fixed(100), Pareto(1000, 2.0), Pareto(1000, 1.5), Bimodal(10, 0.9, 8)}
	for _, d := range dists {
		s := machine.NewStream(scheduleSeed(99))
		sum := 0.0
		const n = 200000
		for i := 0; i < n; i++ {
			sum += float64(d.Sample(s))
		}
		got := sum / n
		// Pareto's cap truncates the tail slightly; allow a wide band.
		if got < d.Mean*0.8 || got > d.Mean*1.2 {
			t.Errorf("%s: sampled mean %.1f, want ~%.1f", d, got, d.Mean)
		}
	}
}
