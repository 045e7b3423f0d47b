package machine

import (
	"testing"
	"testing/quick"
)

func testConfig(cpus int) Config {
	return Config{CPUs: cpus, MemWords: 1 << 16, Seed: 42}
}

func TestRunSingleCPU(t *testing.T) {
	m := New(testConfig(1))
	ran := false
	elapsed := m.Run(1, func(c *CPU) {
		ran = true
		c.Write(64, 7)
		if got := c.Read(64); got != 7 {
			t.Errorf("Read = %d, want 7", got)
		}
		c.Tick(100)
	})
	if !ran {
		t.Fatal("body did not run")
	}
	if elapsed <= 100 {
		t.Errorf("elapsed = %d, want > 100", elapsed)
	}
}

func TestRunManyCPUsAllExecute(t *testing.T) {
	const n = 16
	m := New(testConfig(n))
	var ran [n]bool
	m.Run(n, func(c *CPU) {
		ran[c.ID] = true
		for i := 0; i < 10; i++ {
			c.Write(Addr(64+c.ID*16), uint64(i))
		}
	})
	for i, r := range ran {
		if !r {
			t.Errorf("CPU %d did not run", i)
		}
	}
}

func TestVirtualTimeOrdering(t *testing.T) {
	// Two CPUs appending to a shared log must interleave in virtual-time
	// order: CPU 1 ticks far ahead first, so CPU 0's writes come first.
	m := New(testConfig(2))
	var order []int
	m.Run(2, func(c *CPU) {
		if c.ID == 1 {
			c.Tick(1_000_000)
		}
		for i := 0; i < 5; i++ {
			c.Sync()
			order = append(order, c.ID)
			c.Tick(10)
		}
	})
	want := []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	if len(order) != len(want) {
		t.Fatalf("order has %d entries, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, uint64) {
		m := New(testConfig(8))
		sum := uint64(0)
		elapsed := m.Run(8, func(c *CPU) {
			for i := 0; i < 200; i++ {
				a := Addr(64 + c.Intn(256))
				if c.Intn(2) == 0 {
					c.Write(a, c.Rand64())
				} else {
					sum += c.Read(a)
				}
			}
		})
		return elapsed, sum
	}
	e1, s1 := run()
	e2, s2 := run()
	if e1 != e2 || s1 != s2 {
		t.Errorf("runs differ: (%d,%d) vs (%d,%d)", e1, s1, e2, s2)
	}
}

func TestHotLineSerializes(t *testing.T) {
	// N CPUs hammering one line must take ~N times as long as N CPUs
	// writing private lines: the exclusive-transfer reservation serializes.
	const n, iters = 8, 200
	shared := func() int64 {
		m := New(testConfig(n))
		return m.Run(n, func(c *CPU) {
			for i := 0; i < iters; i++ {
				c.Write(64, uint64(i))
			}
		})
	}()
	private := func() int64 {
		m := New(testConfig(n))
		return m.Run(n, func(c *CPU) {
			base := Addr(64 + c.ID*16)
			for i := 0; i < iters; i++ {
				c.Write(base, uint64(i))
			}
		})
	}()
	if shared < 4*private {
		t.Errorf("shared-line run (%d cycles) not sufficiently serialized vs private (%d cycles)", shared, private)
	}
}

func TestSharedReadsScale(t *testing.T) {
	// Concurrent reads of a clean line must not serialize.
	const n, iters = 8, 500
	m := New(testConfig(n))
	m.Poke(64, 99)
	elapsed := m.Run(n, func(c *CPU) {
		for i := 0; i < iters; i++ {
			if c.Read(64) != 99 {
				t.Error("bad read")
			}
		}
	})
	single := New(testConfig(1)).Run(1, func(c *CPU) {
		for i := 0; i < iters; i++ {
			c.Read(64)
		}
	})
	if elapsed > 3*single {
		t.Errorf("read-shared run %d cycles vs single %d: reads serialized", elapsed, single)
	}
}

func TestCAS(t *testing.T) {
	m := New(testConfig(4))
	m.Run(4, func(c *CPU) {
		for i := 0; i < 100; i++ {
			for {
				v := c.Read(64)
				if c.CAS(64, v, v+1) {
					break
				}
				c.Spin()
			}
		}
	})
	if got := m.Peek(64); got != 400 {
		t.Errorf("counter = %d, want 400", got)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	const n = 8
	m := New(testConfig(n))
	const lock, counter = Addr(64), Addr(128)
	m.Run(n, func(c *CPU) {
		for i := 0; i < 50; i++ {
			for {
				if c.Read(lock) == 0 && c.CAS(lock, 0, 1) {
					break
				}
				c.Spin()
			}
			v := c.Read(counter)
			c.Tick(20) // widen the critical section
			c.Write(counter, v+1)
			c.Write(lock, 0)
		}
	})
	if got := m.Peek(counter); got != n*50 {
		t.Errorf("counter = %d, want %d (mutual exclusion violated)", got, n*50)
	}
}

func TestPagingFaultsAndResidencyLimit(t *testing.T) {
	cfg := testConfig(1)
	cfg.Paging = PagingConfig{Enabled: true, PageWords: 64, ResidentLimit: 4, TLBEntries: 2}
	m := New(cfg)
	faults := 0
	m.CPU(0).OnPageFault = func() { faults++ }
	m.Run(1, func(c *CPU) {
		// Touch 16 pages round-robin twice: with 4 resident pages and a
		// tiny TLB this must thrash.
		for rep := 0; rep < 2; rep++ {
			for p := int64(0); p < 16; p++ {
				c.Read(Addr(p * 64))
			}
		}
	})
	if faults < 20 {
		t.Errorf("faults = %d, want >= 20 (thrashing)", faults)
	}
	if got := m.ResidentPages(); got > 4 {
		t.Errorf("resident pages = %d, want <= 4", got)
	}
	if m.CPU(0).Counters.PageFaults != int64(faults) {
		t.Errorf("counter mismatch: %d vs %d", m.CPU(0).Counters.PageFaults, faults)
	}
}

func TestNoPagingNoFaults(t *testing.T) {
	m := New(testConfig(2))
	m.Run(2, func(c *CPU) {
		for p := int64(0); p < 64; p++ {
			c.Read(Addr(p * 64))
		}
	})
	if m.CPU(0).Counters.PageFaults != 0 {
		t.Error("page faults with paging disabled")
	}
}

func TestInterruptsFire(t *testing.T) {
	cfg := testConfig(1)
	cfg.Paging.InterruptMean = 1000
	m := New(cfg)
	hits := 0
	m.CPU(0).OnInterrupt = func() { hits++ }
	m.Run(1, func(c *CPU) {
		for i := 0; i < 1000; i++ {
			c.Read(64)
			c.Tick(50)
		}
	})
	if hits < 10 {
		t.Errorf("interrupts = %d, want >= 10", hits)
	}
}

func TestAllocatorDistinctAndZeroed(t *testing.T) {
	m := New(testConfig(1))
	m.Run(1, func(c *CPU) {
		seen := map[Addr]bool{}
		for i := 0; i < 100; i++ {
			a := c.Alloc(5)
			if seen[a] {
				t.Fatalf("allocator returned duplicate address %d", a)
			}
			seen[a] = true
			for j := Addr(0); j < 5; j++ {
				if m.Peek(a+j) != 0 {
					t.Fatal("allocation not zeroed")
				}
				m.Poke(a+j, 1)
			}
		}
	})
}

func TestAllocatorReuseAfterFree(t *testing.T) {
	m := New(testConfig(1))
	m.Run(1, func(c *CPU) {
		a := c.Alloc(8)
		c.Free(a, 8)
		b := c.Alloc(8)
		if a != b {
			t.Errorf("free block not reused: %d then %d", a, b)
		}
	})
}

func TestAllocatorAlignment(t *testing.T) {
	m := New(testConfig(1))
	lw := m.Cfg.LineWords
	m.Run(1, func(c *CPU) {
		c.Alloc(3) // misalign the bump pointer
		for i := 0; i < 10; i++ {
			a := c.AllocAligned(5)
			if int64(a)%lw != 0 {
				t.Errorf("AllocAligned returned %d, not line aligned", a)
			}
		}
	})
}

func TestAllocatorProperty(t *testing.T) {
	// Property: any interleaving of allocations never yields overlapping
	// live blocks.
	type block struct {
		addr Addr
		n    int64
	}
	check := func(sizes []uint8) bool {
		m := New(testConfig(1))
		var live []block
		for _, s := range sizes {
			n := int64(s%32) + 1
			a := m.AllocRaw(n)
			for _, b := range live {
				if a < b.addr+Addr(b.n) && b.addr < a+Addr(n) {
					return false
				}
			}
			live = append(live, block{a, n})
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMonotonicTimeAcrossRuns(t *testing.T) {
	m := New(testConfig(2))
	m.Run(2, func(c *CPU) { c.Tick(500) })
	start := m.Now()
	if start < 500 {
		t.Fatalf("Now() = %d after first run, want >= 500", start)
	}
	e := m.Run(2, func(c *CPU) { c.Tick(100) })
	if e < 100 || e > 200 {
		t.Errorf("second run elapsed = %d, want ~100", e)
	}
}

func TestDeadlineCatchesLivelock(t *testing.T) {
	cfg := testConfig(1)
	cfg.Deadline = 10_000
	m := New(cfg)
	defer func() {
		if recover() == nil {
			t.Error("expected deadline panic")
		}
	}()
	m.Run(1, func(c *CPU) {
		for {
			c.Spin()
		}
	})
}

func TestPanicInBodyPropagates(t *testing.T) {
	m := New(testConfig(4))
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want boom", r)
		}
	}()
	m.Run(4, func(c *CPU) {
		if c.ID == 2 {
			panic("boom")
		}
		c.Tick(10)
	})
}

func TestLineOf(t *testing.T) {
	m := New(testConfig(1))
	if m.LineOf(0) != 0 || m.LineOf(15) != 0 || m.LineOf(16) != 1 {
		t.Error("LineOf wrong for 16-word lines")
	}
}

func TestAllocatorAlignedReuse(t *testing.T) {
	// Regression: AllocAligned rounds sizes up to whole lines, so the
	// release must go through FreeAligned to land in the same size class.
	// (A Free(3) of an AllocAligned(3) block used to strand it forever —
	// a leak that exhausted small machines under insert/remove churn.)
	m := New(testConfig(1))
	m.Run(1, func(c *CPU) {
		a := c.AllocAligned(3)
		c.FreeAligned(a, 3)
		b := c.AllocAligned(3)
		if a != b {
			t.Errorf("aligned block not reused: %d then %d", a, b)
		}
		// Steady-state churn must not grow the heap (one block may be
		// bump-allocated on the first iteration while b is still live).
		n0 := c.AllocAligned(3)
		c.FreeAligned(n0, 3)
		heap := m.HeapUsed()
		for i := 0; i < 1000; i++ {
			n := c.AllocAligned(3)
			c.FreeAligned(n, 3)
		}
		if m.HeapUsed() != heap {
			t.Errorf("alloc/free churn grew the heap by %d words", m.HeapUsed()-heap)
		}
	})
}
