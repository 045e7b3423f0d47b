//go:build linux && go1.24

package machine

import (
	"os"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// midConfig is a mapped machine a quarter of bigConfig's size: 16 MiB of
// words plus 4 MiB of records, in a 32 MiB mapping against bigConfig's
// 128 MiB.
func midConfig() Config { return Config{CPUs: 4, MemWords: 2 << 20, Seed: 1} }

// newMapped builds a machine from cfg and skips the test unless it took
// the mapped path.
func newMapped(t *testing.T, cfg Config) *Machine {
	t.Helper()
	m := New(cfg)
	if m.mem == nil {
		t.Skipf("no huge pages on this host (%d B): machines come from make", hugePageBytes)
	}
	return m
}

// settledRSS collects until the cleanups of unreachable machines have
// unmapped their memory, and returns the resident set then, so that a
// machine an earlier test dropped cannot shrink a later measurement.
func settledRSS(t *testing.T) int64 {
	t.Helper()
	rss := int64(-1)
	for tries := 0; tries < 50; tries++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		now := vmRSS(t)
		if now == rss {
			break
		}
		rss = now
	}
	return rss
}

// base returns the address of the machine's first word.
func base(m *Machine) uintptr { return uintptr(unsafe.Pointer(&m.words[0])) }

// dropSpare unmaps the spare mapping, if there is one, so a test starts
// from an empty free list.
func dropSpare() {
	spare.Lock()
	defer spare.Unlock()
	if spare.buf != nil {
		unmap(spare.buf)
		spare.buf = nil
	}
}

// claimAll allocates all of m's memory, so any word may be written
// without breaking the allocator contract.
func claimAll(m *Machine) { m.AllocRaw(m.Cfg.MemWords - m.HeapUsed()) }

// requireAllZero fails unless every word and every line record of m reads
// zero.
func requireAllZero(t *testing.T, m *Machine, what string) {
	t.Helper()
	for a, v := range m.words {
		if v != 0 {
			t.Fatalf("%s: word %d reads %#x", what, a, v)
		}
	}
	for i, v := range m.lines {
		if v != 0 {
			t.Fatalf("%s: record word %d (line %d) reads %#x", what, i, int64(i)/m.recWords, v)
		}
	}
}

// TestReleaseRecyclesMapping dirties a machine every way a run can —
// scattered Pokes, writes and reads that set coherence owners and sharer
// bits, and the HTM slot's writer and reader bitmap — and releases it:
// the next machine of the same size gets the same mapping, and every word
// and record of it reads zero.
func TestReleaseRecyclesMapping(t *testing.T) {
	dropSpare()
	m := newMapped(t, bigConfig())
	claimAll(m)
	last := m.Cfg.MemWords - 1
	for a := int64(0); a <= last; a += 4099 * 7 {
		m.Poke(Addr(a), uint64(a)|1)
	}
	m.Poke(Addr(last), 0xbeef)
	m.Run(4, func(c *CPU) {
		for a := int64(c.ID) * 16; a <= last; a += 1 << 16 {
			if c.ID%2 == 0 {
				c.Write(Addr(a), uint64(a)+1)
			} else {
				c.Read(Addr(a))
			}
		}
	})
	for _, i := range []int64{1, m.LineOf(Addr(last)) / 2, m.LineOf(Addr(last))} {
		m.SetSpecWriter(i, 2)
		m.SpecReaders(i).Add(3)
		m.sharers(m.lineRec(i)).Add(1)
	}
	was := base(m)
	m.Release()

	m2 := New(bigConfig())
	defer m2.Release()
	if m2.mem == nil || base(m2) != was {
		t.Fatalf("the next machine of the same size did not get the released mapping")
	}
	requireAllZero(t, m2, "recycled machine")
	if w := m2.SpecWriter(m2.LineOf(Addr(last))); w != -1 {
		t.Fatalf("last line's speculative writer is %d on a recycled machine, want -1", w)
	}
}

// TestSmallerMachineReusesLargerSpare checks that a machine takes a spare
// mapping larger than it needs, and that its memory reads zero there.
func TestSmallerMachineReusesLargerSpare(t *testing.T) {
	dropSpare()
	m := newMapped(t, bigConfig())
	claimAll(m)
	for a := Addr(0); a < Addr(m.Cfg.MemWords); a += 512 {
		m.Poke(a, 7)
	}
	was, size := base(m), len(m.mem.buf)
	m.Release()

	small := New(midConfig())
	defer small.Release()
	if small.mem == nil || base(small) != was || len(small.mem.buf) != size {
		t.Fatalf("a %d-word machine did not reuse the %d-byte spare", small.Cfg.MemWords, size)
	}
	requireAllZero(t, small, "smaller machine on a larger spare")
}

// TestReleaseClearsOnlyResidentPages builds, sparsely touches and
// releases a 64 MiB machine 16 times. Every round reuses one mapping, and
// Release clears only the pages the round touched, so the resident set
// grows by about one round's touch: not by 16 rounds, and not by the
// whole machine, which clearing every word below the bump pointer would
// fault in.
func TestReleaseClearsOnlyResidentPages(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status on this host")
	}
	dropSpare()
	before := settledRSS(t)
	const rounds = 16
	const stride = 8 << 20 / 8 // one word per 8 MiB: 8 huge pages of 64 MiB
	const bound = 32 << 20     // twice the 16 MiB a round touches; the machine is 80 MiB
	var was uintptr
	for i := 0; i < rounds; i++ {
		m := newMapped(t, bigConfig())
		if i > 0 && base(m) != was {
			t.Fatalf("round %d did not reuse the spare mapping", i)
		}
		was = base(m)
		claimAll(m)
		for a := Addr(i); a < Addr(m.Cfg.MemWords); a += stride {
			m.Poke(a, uint64(a)|1)
		}
		m.Release()
	}
	runtime.GC()
	if grew := vmRSS(t) - before; grew > bound {
		t.Fatalf("VmRSS grew by %d MiB over %d rounds touching 16 MiB each, want at most %d MiB", grew>>20, rounds, bound>>20)
	}
	dropSpare()
}

// TestNoStaleSpare touches every page of a small and a big machine's
// words, small then big and big then small, releasing each. While the
// second machine runs, and after it, the resident set has grown by about
// the big machine's touch, never by both: a spare the big machine cannot
// use is unmapped before the big one is mapped, and the small machine
// reuses the big spare rather than mapping its own.
func TestNoStaleSpare(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status on this host")
	}
	const big = 64 << 20   // bigConfig's words, all touched
	const small = 16 << 20 // midConfig's words, all touched
	const bound = big + small/2
	for _, order := range [][]Config{{midConfig(), bigConfig()}, {bigConfig(), midConfig()}} {
		dropSpare()
		before := settledRSS(t)
		check := func(when string) {
			if grew := vmRSS(t) - before; grew > bound {
				t.Fatalf("machines of %d then %d words, %s: VmRSS grew by %d MiB, want at most %d MiB (one big machine's touch)",
					order[0].MemWords, order[1].MemWords, when, grew>>20, bound>>20)
			}
		}
		for _, cfg := range order {
			m := newMapped(t, cfg)
			claimAll(m)
			for a := Addr(0); a < Addr(m.Cfg.MemWords); a += 512 {
				m.Poke(a, 1)
			}
			check("while running")
			m.Release()
		}
		check("after both")
	}
	dropSpare()
}
