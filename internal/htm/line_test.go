package htm

import (
	"runtime"
	"slices"
	"testing"

	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// TestReaderBitmapWordBoundaries checks the speculative-reader bitmap
// across its word boundaries: CPUs on both sides of every 64-bit boundary
// read one line inside transactions — all of them together, and each one
// alone — then a non-transactional store by another CPU hits the line.
// Exactly those readers are doomed, each with the storing CPU as killer
// and the stored address.
func TestReaderBitmapWordBoundaries(t *testing.T) {
	for _, n := range []int{65, 256} {
		var all []int
		for _, id := range []int{0, 63, 64, 127, 128, 255} {
			if id < n {
				all = append(all, id)
			}
		}
		groups := [][]int{all}
		for _, id := range all {
			groups = append(groups, []int{id})
		}
		for _, readers := range groups {
			readerRound(t, n, readers)
		}
	}
}

// readerRound runs one round of TestReaderBitmapWordBoundaries.
func readerRound(t *testing.T, n int, readers []int) {
	t.Helper()
	const storer = 1
	m := machine.New(machine.Config{CPUs: n, MemWords: 1 << 12, Seed: 1})
	s := NewSystem(m, Config{})
	log := &machine.LogTracer{}
	m.SetTracer(log)
	status := make(map[int]Status)
	m.Run(n, func(c *machine.CPU) {
		th := s.Thread(c.ID)
		switch {
		case c.ID == storer:
			c.Tick(10_000)
			th.Store(addr(0), 1)
		case slices.Contains(readers, c.ID):
			status[c.ID] = th.Try(false, func() {
				th.Load(addr(0))
				c.Tick(20_000) // stay speculative past the store
				th.Load(addr(1))
			})
		}
	})
	var doomed []int
	for _, e := range log.Events {
		if e.Kind != machine.EvTxDoom {
			continue
		}
		doomed = append(doomed, e.CPU)
		cause, killer := UnpackAbortAux(e.Aux)
		if cause != stats.AbortConflictNonTx || killer != storer || e.Addr != addr(0) {
			t.Errorf("%d CPUs: CPU %d doomed by (%v, CPU %d, addr %d), want (non-tx conflict, CPU %d, addr %d)",
				n, e.CPU, cause, killer, e.Addr, storer, addr(0))
		}
	}
	slices.Sort(doomed)
	if !slices.Equal(doomed, readers) {
		t.Errorf("%d CPUs: doomed %v, want exactly the readers %v", n, doomed, readers)
	}
	for _, id := range readers {
		if st := status[id]; st.OK || st.Cause != stats.AbortConflictNonTx {
			t.Errorf("%d CPUs: reader %d finished with %+v, want a non-tx conflict abort", n, id, st)
		}
	}
}

// TestLineRecordFootprint bounds the Go heap that machine.New plus
// NewSystem allocate. Beyond what the same configuration allocates for one
// line of memory (CPUs, threads, write sets), they may allocate on 1<<20
// words 8 B per word plus one record per line: 32 B at 8 CPUs, 80 B at
// 256. Where New takes the words and records from a mapping (on Linux
// with transparent huge pages, for a block of at least one huge page, as
// this test's 8 MiB of words is), they are not on the heap, and the bound
// covers only the rest, NewSystem's threads included. The record width
// itself is checked on either path by machine's TestLineRecordWidth.
func TestLineRecordFootprint(t *testing.T) {
	const words, lineWords = 1 << 20, 16
	const slack = 64 << 10 // runtime and test-framework allocations
	alloc := func(cpus int, memWords int64) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := NewSystem(machine.New(machine.Config{CPUs: cpus, MemWords: memWords, LineWords: lineWords}), Config{})
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(s)
		return after.TotalAlloc - before.TotalAlloc
	}
	for _, tc := range []struct {
		cpus    int
		perLine uint64
	}{{8, 32}, {256, 80}} {
		fixed := alloc(tc.cpus, lineWords)
		got := alloc(tc.cpus, words)
		limit := fixed + 8*words + tc.perLine*(words/lineWords) + slack
		if got > limit {
			t.Errorf("%d CPUs: New+NewSystem on %d words allocated %d B, want at most %d (%d B fixed + 8 B/word + %d B/line)",
				tc.cpus, words, got, limit, fixed, tc.perLine)
		}
	}
}
