package main

import (
	"flag"
	"fmt"
	"testing"

	"hrwle/internal/core"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
)

// layerBench is one single-layer microbenchmark: the in-package
// Benchmark* functions of internal/machine, internal/htm and internal/core,
// rebuilt on the packages' public APIs. iters is the fixed b.N it runs at.
type layerBench struct {
	name  string
	iters int
	fn    func(b *testing.B)
	// zeroAlloc marks benchmarks whose path must not allocate: an htm
	// commit or abort that allocates is a failure.
	zeroAlloc bool
}

var layerBenches = []layerBench{
	{"machine.handoff", 200_000, benchSchedulerHandoff, false},
	{"machine.uncontended_write", 1_000_000, benchUncontendedWrite, false},
	{"machine.contended_line", 200_000, benchContendedLine, false},
	{"machine.paged_read", 500_000, benchPagedRead, false},
	{"htm.commit_small", 200_000, benchTxCommitSmall, true},
	{"htm.rot_commit_read_heavy", 50_000, benchROTCommitReadHeavy, false},
	{"htm.nontx_load", 1_000_000, benchNonTxLoad, false},
	{"htm.conflict_abort", 100_000, benchConflictAbort, true},
	{"core.read_acquire", 500_000, benchReadAcquire, false},
	{"core.read_acquire_fair", 500_000, benchReadAcquireFair, false},
	{"core.write_htm", 100_000, benchWriteHTMPath, false},
	{"core.write_rot", 100_000, benchWriteROTPath, false},
	{"core.quiesce_scan32", 50_000, benchQuiescenceScan, false},
	{"core.readers_scale8", 200_000, benchReadersScale, false},
}

// runLayers runs every layer benchmark once at its fixed iteration count
// and returns `<name>_ns` (ns/op) and `<name>_allocs` (allocs/op) metrics,
// plus a failure for each zero-alloc path that allocated.
func runLayers() (map[string]float64, []string) {
	out := map[string]float64{}
	var fails []string
	for _, lb := range layerBenches {
		r := runFixed(lb.iters, lb.fn)
		out[lb.name+"_ns"] = float64(r.T.Nanoseconds()) / float64(r.N)
		allocs := float64(r.MemAllocs) / float64(r.N)
		out[lb.name+"_allocs"] = allocs
		if lb.zeroAlloc && r.MemAllocs >= uint64(r.N) {
			fails = append(fails, fmt.Sprintf("%s allocates %.2f/op", lb.name, allocs))
		}
	}
	return out, fails
}

// runFixed measures fn at b.N = n. testing.Benchmark otherwise grows b.N
// until a run lasts a second; a fixed count keeps the measured work
// identical on every run.
func runFixed(n int, fn func(b *testing.B)) testing.BenchmarkResult {
	testing.Init() // registers -test.benchtime; a no-op after the first call
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", n)); err != nil {
		panic(err) // the flag exists once testing.Init has run
	}
	return testing.Benchmark(fn)
}

func benchMachine(cpus int, words int64, paging machine.PagingConfig) *machine.Machine {
	return machine.New(machine.Config{CPUs: cpus, MemWords: words, Seed: 1, Deadline: 1 << 62, Paging: paging})
}

func benchSchedulerHandoff(b *testing.B) {
	m := benchMachine(2, 1<<12, machine.PagingConfig{})
	iters := b.N/2 + 1
	b.ResetTimer()
	m.Run(2, func(c *machine.CPU) {
		for i := 0; i < iters; i++ {
			c.Tick(1)
			c.Sync()
		}
	})
}

func benchUncontendedWrite(b *testing.B) {
	m := benchMachine(1, 1<<12, machine.PagingConfig{})
	b.ResetTimer()
	m.Run(1, func(c *machine.CPU) {
		for i := 0; i < b.N; i++ {
			c.Write(64, uint64(i))
		}
	})
}

func benchContendedLine(b *testing.B) {
	m := benchMachine(8, 1<<12, machine.PagingConfig{})
	iters := b.N/8 + 1
	b.ResetTimer()
	m.Run(8, func(c *machine.CPU) {
		for i := 0; i < iters; i++ {
			c.Write(64, uint64(i))
		}
	})
}

func benchPagedRead(b *testing.B) {
	m := benchMachine(1, 1<<16, machine.PagingConfig{Enabled: true, PageWords: 512, TLBEntries: 16})
	b.ResetTimer()
	m.Run(1, func(c *machine.CPU) {
		for i := 0; i < b.N; i++ {
			c.Read(machine.Addr((i * 512) % (1 << 15)))
		}
	})
}

func htmSys(cpus int, words int64) *htm.System {
	return htm.NewSystem(benchMachine(cpus, words, machine.PagingConfig{}), htm.Config{})
}

// lineAddr is the address of word 0 of line i+1 (16-word lines), as the
// htm package's tests lay out their variables.
func lineAddr(i int) machine.Addr { return machine.Addr(16 + i*16) }

func benchTxCommitSmall(b *testing.B) {
	s := htmSys(1, 1<<16)
	b.ResetTimer()
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		for i := 0; i < b.N; i++ {
			th.Try(false, func() {
				for j := 0; j < 4; j++ {
					th.Store(lineAddr(j), uint64(i))
				}
			})
		}
	})
}

func benchROTCommitReadHeavy(b *testing.B) {
	s := htmSys(1, 1<<16)
	b.ResetTimer()
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		for i := 0; i < b.N; i++ {
			th.Try(true, func() {
				for j := 0; j < 48; j++ {
					th.Load(lineAddr(j))
				}
				th.Store(lineAddr(0), uint64(i))
			})
		}
	})
}

func benchNonTxLoad(b *testing.B) {
	s := htmSys(1, 1<<16)
	b.ResetTimer()
	s.M.Run(1, func(c *machine.CPU) {
		th := s.Thread(0)
		for i := 0; i < b.N; i++ {
			th.Load(lineAddr(i % 8))
		}
	})
}

func benchConflictAbort(b *testing.B) {
	s := htmSys(2, 1<<16)
	iters := b.N/2 + 1
	b.ResetTimer()
	s.M.Run(2, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		for i := 0; i < iters; i++ {
			th.Try(false, func() {
				th.Store(lineAddr(0), uint64(i))
				c.Tick(50)
				th.Load(lineAddr(1))
			})
		}
	})
}

func coreLockBench(b *testing.B, cpus, threads int, opts core.Options, write bool) {
	sys := htmSys(cpus, 1<<18)
	lock := core.New(sys, opts)
	a := sys.M.AllocRawAligned(1)
	iters := b.N/threads + 1
	if threads == 1 {
		iters = b.N
	}
	b.ResetTimer()
	sys.M.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		for i := 0; i < iters; i++ {
			if write {
				lock.Write(th, func() { th.Store(a, uint64(i)) })
			} else {
				lock.Read(th, func() {})
			}
		}
	})
}

func benchReadAcquire(b *testing.B) { coreLockBench(b, 1, 1, core.Opt(), false) }

func benchReadAcquireFair(b *testing.B) {
	o := core.Opt()
	o.Fair = true
	coreLockBench(b, 1, 1, o, false)
}

func benchWriteHTMPath(b *testing.B)   { coreLockBench(b, 1, 1, core.Opt(), true) }
func benchWriteROTPath(b *testing.B)   { coreLockBench(b, 1, 1, core.Pes(), true) }
func benchQuiescenceScan(b *testing.B) { coreLockBench(b, 32, 1, core.Opt(), true) }
func benchReadersScale(b *testing.B)   { coreLockBench(b, 8, 8, core.Opt(), false) }
