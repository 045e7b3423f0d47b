package machine

import (
	"slices"
	"testing"
)

// boundaryCPUs returns the CPUs on either side of each 64-bit bitmap word
// boundary that a machine of n CPUs has.
func boundaryCPUs(n int) []int {
	var ids []int
	for _, id := range []int{0, 63, 64, 127, 128, 255} {
		if id < n {
			ids = append(ids, id)
		}
	}
	return ids
}

// TestSharerBitmapWordBoundaries checks the sharer bitmap across its word
// boundaries on machines wider than one word. One CPU writes a line, then
// CPUs on both sides of every boundary read it — all of them together,
// and each one alone, so the writer's bitmap word is sometimes the only
// non-empty one: each reader pays exactly one miss, and when the writer
// writes again it is no longer the only sharer, so it pays a write miss.
func TestSharerBitmapWordBoundaries(t *testing.T) {
	for _, n := range []int{65, 256} {
		for _, writer := range boundaryCPUs(n) {
			others := slices.DeleteFunc(boundaryCPUs(n), func(id int) bool { return id == writer })
			groups := [][]int{others}
			for _, id := range others {
				groups = append(groups, []int{id})
			}
			for _, ids := range groups {
				sharerRound(t, n, writer, ids)
			}
		}
	}
}

// sharerRound runs one round of TestSharerBitmapWordBoundaries: writer
// writes the line, the readers read it twice, and writer writes again.
func sharerRound(t *testing.T, n, writer int, ids []int) {
	t.Helper()
	const a = Addr(64)
	m := New(Config{CPUs: n, MemWords: 1 << 12, Seed: 1})
	costs := m.Cfg.Costs
	var rewrite int64
	reads := make(map[int][2]int64)
	m.Run(n, func(c *CPU) {
		switch {
		case c.ID == writer:
			c.Write(a, 1) // owner and only sharer
			c.IdleUntil(20_000)
			before := c.Now()
			c.Write(a, 2)
			rewrite = c.Now() - before
		case slices.Contains(ids, c.ID):
			c.IdleUntil(10_000)
			var cost [2]int64
			for i := range cost {
				before := c.Now()
				c.Read(a)
				cost[i] = c.Now() - before
			}
			reads[c.ID] = cost
		}
	})
	for _, id := range ids {
		if got, want := reads[id], [2]int64{costs.ReadMiss, costs.L1Hit}; got != want {
			t.Errorf("%d CPUs, writer %d, readers %v: CPU %d read costs %v, want %v (one miss, then a hit)", n, writer, ids, id, got, want)
		}
	}
	if rewrite != costs.WriteMiss {
		t.Errorf("%d CPUs: writer %d rewrote a line shared with %v in %d cycles, want a write miss (%d)", n, writer, ids, rewrite, costs.WriteMiss)
	}
}

// TestLineRecordWidth holds each line's record to 2 + 2w words (line.go):
// 4 words (32 B) at 8 CPUs and 10 (80 B) at 256. It reads the length of
// the records themselves, so it holds whether New took them from a
// mapping or from make; htm's TestLineRecordFootprint bounds the Go heap
// that New and NewSystem allocate. A field added to the record fails here
// rather than showing up later as peak-RSS drift.
func TestLineRecordWidth(t *testing.T) {
	const words, lineWords = 1 << 20, 16
	for _, tc := range []struct{ cpus, perLine int }{{8, 4}, {256, 10}} {
		m := New(Config{CPUs: tc.cpus, MemWords: words, LineWords: lineWords})
		if got, want := len(m.lines), tc.perLine*words/lineWords; got != want {
			t.Errorf("%d CPUs: %d words of line records for %d lines, want %d (%d per line)",
				tc.cpus, got, words/lineWords, want, tc.perLine)
		}
	}
}
