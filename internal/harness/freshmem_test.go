package harness

import (
	"testing"

	"hrwle/internal/machine"
	"hrwle/internal/service"
	"hrwle/internal/shard"
)

// TestFreshMemoryStaysZero checks the allocator contract on every
// workload: nothing writes outside an allocated block. The allocator hands
// out bump-pointer memory without clearing it, relying on New's zeroing,
// so after set-up and a short run every word from HeapUsed() to the end
// of memory must still read zero. The runner releases its machine when
// the point ends, and Release makes that check (a nonzero word past the
// bump pointer panics), so each point must return without a panic, and
// its machine must have been released.
func TestFreshMemoryStaysZero(t *testing.T) {
	hm := HashmapParams{Buckets: 16, Items: 20, WritePct: 50, Threads: 4, TotalOps: 400, Seed: 1}
	points := []struct {
		name string
		run  func(observe func(*machine.Machine))
	}{
		{"hashmap", func(o func(*machine.Machine)) { RunHashmap(PointCtx{Observe: o}, hm, SchemeFactory("RW-LE_OPT")) }},
		{"kyoto", func(o func(*machine.Machine)) { runKyoto(PointCtx{Observe: o}, "RW-LE_OPT", 4, 20, 400, 1) }},
		{"tpcc", func(o func(*machine.Machine)) { runTPCC(PointCtx{Observe: o}, "RW-LE_OPT", 4, 50, 200, 1) }},
		{"stmbench7", func(o func(*machine.Machine)) { runSTMBench7(PointCtx{Observe: o}, "RW-LE_OPT", 4, 50, 100, 1) }},
		{"rcu", func(o func(*machine.Machine)) { runRCUHashmap(PointCtx{Observe: o}, hm) }},
		{"shard", func(o func(*machine.Machine)) {
			cfg := shard.DefaultConfig()
			cfg.Servers = 8
			cfg.Shards = 2
			cfg.Requests = 400
			cfg.Keys = service.KeyConfig{Universe: 1 << 12, Skew: 1.2, CrossPct: 6}
			cfg.Arrivals.RatePerSec = 3e6
			if _, err := shard.Run(cfg, ShardPalette(), o); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, p := range points {
		var m *machine.Machine
		if r := recovered(func() { p.run(func(mm *machine.Machine) { m = mm }) }); r != nil {
			t.Errorf("%s: %v", p.name, r)
			continue
		}
		if m == nil {
			t.Fatalf("%s: observe never saw the machine", p.name)
		}
		if recovered(func() { m.Peek(0) }) == nil {
			t.Errorf("%s: the runner did not release its machine, so nothing checked its memory", p.name)
		}
	}
}

// recovered runs fn and returns what it panicked with, or nil.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}
