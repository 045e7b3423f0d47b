package shard

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"hrwle/internal/core"
	"hrwle/internal/htm"
	"hrwle/internal/locks"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
	"hrwle/internal/service"
)

// palette returns the standard adaptive ladder: most speculative first.
func palette() []Scheme {
	return []Scheme{
		{Name: "RW-LE_OPT", Mk: func(s *htm.System) rwlock.Lock { return core.New(s, core.Opt()) }},
		{Name: "HLE", Mk: func(s *htm.System) rwlock.Lock { return locks.NewHLE(s) }},
		{Name: "SGL", Mk: func(s *htm.System) rwlock.Lock { return locks.NewSGL(s) }},
	}
}

func sglOnly() []Scheme {
	return []Scheme{
		{Name: "SGL", Mk: func(s *htm.System) rwlock.Lock { return locks.NewSGL(s) }},
	}
}

// testConfig is a small, fast point: 16 servers over 4 shards.
func testConfig() Config {
	c := DefaultConfig()
	c.Servers = 16
	c.Requests = 600
	c.QueueCap = 4096
	c.Shards = 4
	c.Window = 200_000
	c.Keys = service.KeyConfig{Universe: 1 << 14, Skew: 1.2, CrossPct: 6}
	c.Arrivals.RatePerSec = 3e6
	return c
}

// testDeadline is the deadline of every machine these tests build: a few
// times their largest makespan (the switching point's 1.8M cycles), so a
// livelock fails its test in seconds instead of running to the machine's
// default of 1e14 cycles.
const testDeadline = 10_000_000

// bounded is the observe hook of every point these tests run: it gives
// the point's machine testDeadline.
func bounded(m *machine.Machine) { m.Cfg.Deadline = testDeadline }

func runJSON(t *testing.T, cfg Config, pal []Scheme) (*Result, []byte) {
	t.Helper()
	res, err := Run(cfg, pal, bounded)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, b
}

// TestConfigCheck: the shard fields a point cannot run with are rejected,
// not defaulted, by Check and by Run.
func TestConfigCheck(t *testing.T) {
	if err := testConfig().Check(); err != nil {
		t.Fatalf("test config rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero shards", func(c *Config) { c.Shards = 0 }},
		{"zero window", func(c *Config) { c.Window = 0 }},
		{"universe below shards", func(c *Config) { c.Keys.Universe = c.Shards - 1 }},
		{"NaN skew", func(c *Config) { c.Keys.Skew = math.NaN() }},
		{"infinite skew", func(c *Config) { c.Keys.Skew = math.Inf(1) }},
	} {
		cfg := testConfig()
		tc.mutate(&cfg)
		if err := cfg.Check(); err == nil {
			t.Errorf("%s: Check accepted %+v", tc.name, cfg)
		}
		if _, err := Run(cfg, sglOnly(), bounded); err == nil {
			t.Errorf("%s: Run accepted it", tc.name)
		}
	}
}

// TestShardDeterministic pins that a full adaptive sharded run — schedule,
// routing, per-shard switching, metrics — is a pure function of the
// config: two runs are byte-identical through JSON.
func TestShardDeterministic(t *testing.T) {
	_, a := runJSON(t, testConfig(), palette())
	_, b := runJSON(t, testConfig(), palette())
	if !bytes.Equal(a, b) {
		t.Fatalf("adaptive shard runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestShardSeedSensitivity guards against a run that ignores its seed.
func TestShardSeedSensitivity(t *testing.T) {
	_, a := runJSON(t, testConfig(), sglOnly())
	cfg := testConfig()
	cfg.Seed = 2
	_, b := runJSON(t, cfg, sglOnly())
	if bytes.Equal(a, b) {
		t.Fatal("seeds 1 and 2 produced identical shard runs")
	}
}

// TestShardOpConservation checks that every served request's footprint
// lands on some shard: total shard ops equal the schedule's served
// footprint plus one extra op per multi-key write, and every generated
// request is served (the queue is unbounded for this config).
func TestShardOpConservation(t *testing.T) {
	cfg := testConfig()
	reqs, err := service.GenerateSchedule(cfg.Config)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for i := range reqs {
		want += int64(reqs[i].Footprint)
		if reqs[i].Key2 >= 0 {
			want++
		}
	}

	res, _ := runJSON(t, cfg, sglOnly())
	if res.Service.Dropped != 0 {
		t.Fatalf("%d drops with queue cap %d", res.Service.Dropped, cfg.QueueCap)
	}
	got := int64(0)
	for _, s := range res.Shards {
		got += s.Ops
		if s.Writes > s.Ops {
			t.Fatalf("shard %d: %d writes > %d ops", s.Shard, s.Writes, s.Ops)
		}
	}
	if got != want {
		t.Fatalf("shard ops %d, schedule footprint %d", got, want)
	}
	if res.Service.Served != int64(len(reqs)) {
		t.Fatalf("served %d of %d", res.Service.Served, len(reqs))
	}
}

// TestShardSpread checks the routing hash actually spreads load: with
// 4 shards and thousands of ops, no shard is empty and no shard holds
// more than 90% of the ops (Zipfian skew legitimately concentrates load,
// but rank 0 must not own everything when Universe >> Shards).
func TestShardSpread(t *testing.T) {
	res, _ := runJSON(t, testConfig(), sglOnly())
	total := int64(0)
	for _, s := range res.Shards {
		total += s.Ops
	}
	for _, s := range res.Shards {
		if s.Ops == 0 {
			t.Fatalf("shard %d received no ops", s.Shard)
		}
		if s.Ops*10 > total*9 {
			t.Fatalf("shard %d holds %d of %d ops", s.Shard, s.Ops, total)
		}
	}
}

// TestShardCrossTx checks that multi-key writes happen and are counted
// once each, and that a CrossPct=0 run has none.
func TestShardCrossTx(t *testing.T) {
	res, _ := runJSON(t, testConfig(), sglOnly())
	if res.CrossTx == 0 {
		t.Fatal("CrossPct=6 produced no cross-shard transactions")
	}
	sum := int64(0)
	for _, s := range res.Shards {
		sum += s.CrossTx
	}
	if sum != 2*res.CrossTx {
		t.Fatalf("per-shard cross counts sum to %d, want 2×%d", sum, res.CrossTx)
	}

	cfg := testConfig()
	cfg.Keys.CrossPct = 0
	res0, _ := runJSON(t, cfg, sglOnly())
	if res0.CrossTx != 0 {
		t.Fatalf("CrossPct=0 produced %d cross-shard transactions", res0.CrossTx)
	}
}

// switchConfig is a small adaptive point that does switch: with 8 servers
// and a short controller window, two shards move between RW-LE and HLE
// (8 switches at seed 1).
func switchConfig() Config {
	c := testConfig()
	c.Servers = 8
	c.Requests = 1500
	c.Window = 20_000
	return c
}

// TestShardSwitchTrace validates the adaptive switch trace: virtual-time
// ordered, no self-switches, per-shard chains consistent from palette[0]
// to the reported final scheme, and switch counts matching.
func TestShardSwitchTrace(t *testing.T) {
	pal := palette()
	res, _ := runJSON(t, switchConfig(), pal)
	if len(res.Switches) == 0 {
		t.Fatal("adaptive point made no scheme switch; the trace checks would pass vacuously")
	}
	lastT := int64(0)
	cur := make(map[int]string)
	count := make(map[int]int)
	for i := range res.Shards {
		cur[i] = pal[0].Name
	}
	for _, sw := range res.Switches {
		if sw.AtCycles < lastT {
			t.Fatalf("switch trace out of order at %d", sw.AtCycles)
		}
		lastT = sw.AtCycles
		if sw.From == sw.To {
			t.Fatalf("self-switch on shard %d at %d", sw.Shard, sw.AtCycles)
		}
		if cur[sw.Shard] != sw.From {
			t.Fatalf("shard %d switch from %q but was on %q", sw.Shard, sw.From, cur[sw.Shard])
		}
		cur[sw.Shard] = sw.To
		count[sw.Shard]++
	}
	for _, s := range res.Shards {
		if cur[s.Shard] != s.Final {
			t.Fatalf("shard %d trace ends on %q, stats say %q", s.Shard, cur[s.Shard], s.Final)
		}
		if count[s.Shard] != s.Switches {
			t.Fatalf("shard %d: %d trace switches, stats say %d", s.Shard, count[s.Shard], s.Switches)
		}
	}
}

// TestShardFixedNeverSwitches pins that a single-scheme palette cannot
// switch (the controller is not even constructed).
func TestShardFixedNeverSwitches(t *testing.T) {
	res, _ := runJSON(t, testConfig(), sglOnly())
	if len(res.Switches) != 0 {
		t.Fatalf("fixed-scheme run recorded %d switches", len(res.Switches))
	}
	for _, s := range res.Shards {
		if s.Final != "SGL" || s.Switches != 0 {
			t.Fatalf("shard %d: final %q, %d switches", s.Shard, s.Final, s.Switches)
		}
	}
}

// minTimeID is a controlled scheduler that always picks what the default
// engine picks, the runnable CPU with the smallest (time, ID). Installing
// it moves a run onto the controlled path, where CPU.Await runs every
// waiter step on the waiting CPU's own stack instead of in the engine.
type minTimeID struct{}

func (minTimeID) Pick(_ *machine.CPU, runnable []*machine.CPU) *machine.CPU {
	best := runnable[0] // runnable is sorted by ID, so ties keep the lower ID
	for _, c := range runnable[1:] {
		if c.Now() < best.Now() {
			best = c
		}
	}
	return best
}

// TestControlledSchedulerMatchesEngine runs a 2-server serve point and a
// 2-shard adaptive shard point once on the default engine and once under
// minTimeID, and requires byte-identical result JSON: the dispatch and
// gate waiters must take the same scheduling points whether the engine
// steps them or Await runs them on the coroutine, and block and wake the
// same idle servers.
func TestControlledSchedulerMatchesEngine(t *testing.T) {
	run := func(name string, point func(observe func(*machine.Machine)) any) {
		var m *machine.Machine
		a, err := json.Marshal(point(func(mm *machine.Machine) { bounded(mm); m = mm }))
		if err != nil {
			t.Fatal(err)
		}
		def := m.EngineCounters()
		b, err := json.Marshal(point(func(mm *machine.Machine) { bounded(mm); mm.SetScheduler(minTimeID{}); m = mm }))
		if err != nil {
			t.Fatal(err)
		}
		ctl := m.EngineCounters()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: controlled run diverged from the engine:\n%s\nvs\n%s", name, a, b)
		}
		if def.WaiterSteps == 0 || ctl.WaiterSteps != 0 || ctl.InlineSteps == 0 {
			t.Errorf("%s: waiters not exercised on both paths: engine %+v, controlled %+v", name, def, ctl)
		}
		if def.Blocks == 0 || def.Blocks != ctl.Blocks || def.Wakes != ctl.Wakes {
			t.Errorf("%s: idle servers not blocked and woken alike on both paths: engine %+v, controlled %+v", name, def, ctl)
		}
	}

	run("serve", func(observe func(*machine.Machine)) any {
		cfg := service.DefaultConfig("hashmap")
		cfg.Servers = 2
		cfg.Requests = 300
		cfg.Arrivals.RatePerSec = 1e6
		m, _, err := service.RunPoint(cfg, "RW-LE_OPT", palette()[0].Mk, observe)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
	run("shard", func(observe func(*machine.Machine)) any {
		cfg := testConfig()
		cfg.Servers = 4
		cfg.Shards = 2
		cfg.Requests = 300
		res, err := Run(cfg, palette(), observe)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
}
