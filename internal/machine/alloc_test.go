package machine

import "testing"

// fill writes a nonzero pattern over n words at a.
func fill(m *Machine, a Addr, n int64) {
	for i := Addr(0); i < Addr(n); i++ {
		m.Poke(a+i, 0xdead0000|uint64(i))
	}
}

// requireZero fails unless the n words at a read zero.
func requireZero(t *testing.T, m *Machine, what string, a Addr, n int64) {
	t.Helper()
	for i := Addr(0); i < Addr(n); i++ {
		if v := m.Peek(a + i); v != 0 {
			t.Fatalf("%s: word %d of block %d reads %#x, want 0", what, i, a, v)
		}
	}
}

// TestAllocatorRecycledBlockZeroed pins the half of the zeroing contract
// the allocator does work for: a block that was written, freed and handed
// out again comes back zero, through both the exact-size and the aligned
// size classes.
func TestAllocatorRecycledBlockZeroed(t *testing.T) {
	m := New(testConfig(1))
	lw := m.Cfg.LineWords
	m.Run(1, func(c *CPU) {
		a := c.Alloc(7)
		fill(m, a, 7)
		c.Free(a, 7)
		if b := c.Alloc(7); b != a {
			t.Fatalf("Alloc after Free returned %d, want recycled %d", b, a)
		}
		requireZero(t, m, "recycled Alloc", a, 7)

		// An aligned block owns its whole line-rounded size; write it all.
		al := c.AllocAligned(3)
		size := (3 + lw - 1) &^ (lw - 1)
		fill(m, al, size)
		c.FreeAligned(al, 3)
		if b := c.AllocAligned(3); b != al {
			t.Fatalf("AllocAligned after FreeAligned returned %d, want recycled %d", b, al)
		}
		requireZero(t, m, "recycled AllocAligned", al, size)
	})
}

// TestAllocatorBumpMemoryZero pins the other half: memory claimed from the
// bump pointer, including the padding skipped to align a block, reads zero
// without the allocator clearing it, because New zeroed it and nothing
// writes outside an allocated block.
func TestAllocatorBumpMemoryZero(t *testing.T) {
	m := New(testConfig(1))
	lw := m.Cfg.LineWords
	m.Run(1, func(c *CPU) {
		a := c.Alloc(3) // misalign the bump pointer
		fill(m, a, 3)
		end := a + 3
		b := c.AllocAligned(5)
		if b == end {
			t.Fatalf("AllocAligned at %d needed no padding; test setup is wrong", b)
		}
		requireZero(t, m, "alignment padding", end, int64(b-end))
		requireZero(t, m, "fresh AllocAligned", b, lw)
		requireZero(t, m, "fresh Alloc", c.Alloc(9), 9)
		requireZero(t, m, "fresh AllocRaw", m.AllocRaw(4), 4)
		requireZero(t, m, "past the bump pointer", Addr(m.HeapUsed()), m.Cfg.MemWords-m.HeapUsed())
	})
}
