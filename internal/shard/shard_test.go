package shard_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"hrwle/internal/core"
	"hrwle/internal/htm"
	"hrwle/internal/locks"
	"hrwle/internal/rwlock"
	"hrwle/internal/service"
	"hrwle/internal/shard"
)

// palette returns the standard adaptive ladder: most speculative first.
func palette() []shard.Scheme {
	return []shard.Scheme{
		{Name: "RW-LE_OPT", Mk: func(s *htm.System) rwlock.Lock { return core.New(s, core.Opt()) }},
		{Name: "HLE", Mk: func(s *htm.System) rwlock.Lock { return locks.NewHLE(s) }},
		{Name: "SGL", Mk: func(s *htm.System) rwlock.Lock { return locks.NewSGL(s) }},
	}
}

func sglOnly() []shard.Scheme {
	return []shard.Scheme{
		{Name: "SGL", Mk: func(s *htm.System) rwlock.Lock { return locks.NewSGL(s) }},
	}
}

// testConfig is a small, fast point: 16 servers over 4 shards.
func testConfig() shard.Config {
	c := shard.DefaultConfig()
	c.Servers = 16
	c.Requests = 600
	c.QueueCap = 4096
	c.Shards = 4
	c.Window = 200_000
	c.Keys = service.KeyConfig{Universe: 1 << 14, Skew: 1.2, CrossPct: 6}
	c.Arrivals.RatePerSec = 3e6
	return c
}

func runJSON(t *testing.T, cfg shard.Config, pal []shard.Scheme) (*shard.Result, []byte) {
	t.Helper()
	res, err := shard.Run(cfg, pal, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, b
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
	if err := cfg.Config.Normalize(); err != nil {
		t.Fatal(err)
	}
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

// TestShardSwitchTrace validates the adaptive switch trace: virtual-time
// ordered, no self-switches, per-shard chains consistent from palette[0]
// to the reported final scheme, and switch counts matching.
func TestShardSwitchTrace(t *testing.T) {
	pal := palette()
	res, _ := runJSON(t, testConfig(), pal)
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

// TestShard256Pinned runs one 256-CPU adaptive point, so the four-word
// coherence and conflict bitmaps of a machine with more than 64 CPUs are
// exercised by the ordinary test suite, and pins its sim_cycles and the
// sha256 of its result JSON exactly: a change to either is a behaviour
// change, not a speed-up.
func TestShard256Pinned(t *testing.T) {
	cfg := shard.DefaultConfig()
	cfg.Servers = 256
	cfg.Shards = 16
	cfg.Requests = 600
	cfg.Keys.Universe = 16384
	cfg.Keys.Skew = 1.2
	cfg.Arrivals.RatePerSec = 2e7
	res, b := runJSON(t, cfg, palette())
	sum := sha256.Sum256(b)
	const (
		wantCycles = int64(235741)
		wantSHA    = "24521b5a5298580992ad0fb4ba97c6877e0182ab835f75db832563caa70fbd05"
	)
	if res.Service.MakespanCycles != wantCycles {
		t.Errorf("sim_cycles %d, want %d", res.Service.MakespanCycles, wantCycles)
	}
	if got := hex.EncodeToString(sum[:]); got != wantSHA {
		t.Errorf("result sha256 %s, want %s", got, wantSHA)
	}
}
