package machine

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// bigConfig is a machine whose memory and line records span many huge
// pages: 64 MiB of words plus 16 MiB of records.
func bigConfig() Config { return Config{CPUs: 4, MemWords: 8 << 20, Seed: 1} }

// TestMappedMemoryZeroAtBothEnds checks a machine above the mapping floor:
// it takes the mapped path wherever the host gives huge pages, reads zero
// at its first and last word and in its last line record, and Poke and
// Peek work at both ends of memory.
func TestMappedMemoryZeroAtBothEnds(t *testing.T) {
	m := New(bigConfig())
	if want := hugePageBytes > 0; (m.mem != nil) != want {
		t.Fatalf("mapped = %v on a %d-word machine, want %v (huge page %d B)", m.mem != nil, m.Cfg.MemWords, want, hugePageBytes)
	}
	first, last := Addr(0), Addr(m.Cfg.MemWords-1)
	for _, a := range []Addr{first, last} {
		if v := m.Peek(a); v != 0 {
			t.Fatalf("word %d of a new machine reads %#x", a, v)
		}
	}
	lastLine := m.LineOf(last)
	for i, w := range m.lineRec(lastLine) {
		if w != 0 {
			t.Fatalf("word %d of the last line record reads %#x", i, w)
		}
	}
	if w := m.SpecWriter(lastLine); w != -1 {
		t.Fatalf("last line's speculative writer is %d, want -1", w)
	}
	if int64(len(m.lines)) != (lastLine+1)*m.recWords {
		t.Fatalf("%d record words for %d lines of %d words", len(m.lines), lastLine+1, m.recWords)
	}
	m.Poke(first, 0xfeed)
	m.Poke(last, 0xbeef)
	if a, b := m.Peek(first), m.Peek(last); a != 0xfeed || b != 0xbeef {
		t.Fatalf("Peek after Poke: first %#x, last %#x", a, b)
	}
	m.SetSpecWriter(lastLine, 3)
	if w := m.SpecWriter(lastLine); w != 3 {
		t.Fatalf("last line's speculative writer is %d after setting 3", w)
	}
	if v := m.Peek(last - 1); v != 0 {
		t.Fatalf("the word before a poked last word reads %#x", v)
	}
}

// TestSmallMachineTakesMake checks the mapping floor: a machine whose
// memory and records fit in one huge page comes from make.
func TestSmallMachineTakesMake(t *testing.T) {
	m := New(testConfig(2)) // 512 KiB of words, 128 KiB of records
	if m.mem != nil {
		t.Fatalf("a %d-word machine was mapped; the floor is one huge page (%d B)", m.Cfg.MemWords, hugePageBytes)
	}
	if m.Peek(Addr(m.Cfg.MemWords-1)) != 0 {
		t.Fatal("last word of a small machine is not zero")
	}
}

// TestMappedMemoryReleased checks that a dropped machine's memory goes
// back to the host: 16 rounds of building a 64 MiB machine, touching every
// page of it, dropping it and collecting must leave the process's
// resident set far below the 1 GiB those rounds touched.
func TestMappedMemoryReleased(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc/self/status on this host")
	}
	const rounds = 16
	const bound = 4 * 64 << 20 // a few machines' worth, for late cleanups
	runtime.GC()
	before := vmRSS(t)
	for i := 0; i < rounds; i++ {
		m := New(bigConfig())
		for a := Addr(0); a < Addr(m.Cfg.MemWords); a += 512 {
			m.Poke(a, uint64(a)|1)
		}
		runtime.KeepAlive(m)
		runtime.GC()
	}
	// Cleanups run on their own goroutine after the collection that
	// finds the machine unreachable; give the last ones a moment.
	grew := vmRSS(t) - before
	for tries := 0; grew > bound && tries < 50; tries++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		grew = vmRSS(t) - before
	}
	if grew > bound {
		t.Fatalf("VmRSS grew by %d MiB over %d dropped 64 MiB machines, want at most %d MiB", grew>>20, rounds, bound>>20)
	}
}

// vmRSS returns the process's resident set in bytes.
func vmRSS(t *testing.T) int64 {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmRSS:")); ok {
			kb, err := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(rest), []byte(" kB"))), 10, 64)
			if err != nil {
				t.Fatalf("VmRSS line %q: %v", line, err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmRSS line in /proc/self/status")
	return 0
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestReleaseChecksContract checks that Release enforces the allocator
// contract, from make and from a mapping alike (where it reads only the
// resident pages): a word written past the bump pointer makes it panic
// and leaves the machine's memory as it was.
func TestReleaseChecksContract(t *testing.T) {
	for _, cfg := range []Config{testConfig(2), bigConfig()} {
		m := New(cfg)
		m.AllocRaw(100)
		a := Addr(cfg.MemWords - 1)
		m.Poke(a, 0xbad)
		if !panics(m.Release) {
			t.Fatalf("Release did not panic on a nonzero word %d past the bump pointer %d", a, m.HeapUsed())
		}
		if v := m.Peek(a); v != 0xbad {
			t.Fatalf("word %d reads %#x after a failed Release, want 0xbad", a, v)
		}
	}
}

// TestPeekAfterReleasePanics checks that a released machine's memory is
// gone, from make and from a mapping alike: Peek and Poke panic instead
// of reaching memory that may be another machine's by now.
func TestPeekAfterReleasePanics(t *testing.T) {
	for _, cfg := range []Config{testConfig(2), bigConfig()} {
		m := New(cfg)
		m.Release()
		if !panics(func() { m.Peek(Addr(cfg.LineWords)) }) {
			t.Fatalf("Peek after Release of a %d-word machine did not panic", cfg.MemWords)
		}
		if !panics(func() { m.Poke(Addr(cfg.LineWords), 1) }) {
			t.Fatalf("Poke after Release of a %d-word machine did not panic", cfg.MemWords)
		}
	}
}

// TestReleaseFromMakeHarmless releases a small machine from make twice
// after a run: its host-side state stays readable, and the spare a mapped
// machine left is still there for the next mapped machine.
func TestReleaseFromMakeHarmless(t *testing.T) {
	big := New(bigConfig())
	bigMem := big.mem
	var was *uint64
	if bigMem != nil {
		was = &big.words[0]
	}
	big.Release()

	m := New(testConfig(2))
	if m.mem != nil {
		t.Fatalf("a %d-word machine was mapped", m.Cfg.MemWords)
	}
	m.AllocRaw(128)
	m.Run(2, func(c *CPU) { c.Write(Addr(64+16*c.ID), 1) })
	eng := m.EngineCounters()
	m.Release()
	m.Release()
	if m.Cfg.CPUs != 2 || m.CPU(1).Counters.Writes != 1 || m.EngineCounters() != eng {
		t.Fatalf("host-side state changed by Release: %d CPUs, CPU 1 wrote %d times, engine %+v (was %+v)",
			m.Cfg.CPUs, m.CPU(1).Counters.Writes, m.EngineCounters(), eng)
	}

	next := New(bigConfig())
	defer next.Release()
	if bigMem != nil && &next.words[0] != was {
		t.Fatal("releasing a machine from make lost the spare mapping")
	}
}
