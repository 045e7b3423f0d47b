package machine

import "fmt"

// arena is a simple dynamic allocator over simulated memory: a bump pointer
// plus exact-size free lists. It lives outside simulated memory (its own
// bookkeeping costs are charged as a flat Alloc cost), which keeps it out
// of the coherence and conflict-detection picture — the experiments are
// about the applications' accesses, not the allocator's.
//
// Contract: nothing writes a word outside an allocated block. Words past
// the bump pointer (and the padding the bump pointer skips to align a
// block) are therefore still zero from New, and only blocks recycled from
// the free lists need clearing before they are handed out again.
type arena struct {
	next      Addr
	limit     Addr
	lineWords int64
	free      map[int64][]Addr
	nFree     int // blocks on the free lists; alloc skips the map while 0
}

func (a *arena) init(memWords, lineWords int64) {
	// Reserve line 0 so that Addr 0 can serve as nil and so the first
	// allocation never shares a line with the nil address.
	a.next = Addr(lineWords)
	a.limit = Addr(memWords)
	a.lineWords = lineWords
	a.free = make(map[int64][]Addr)
}

// alloc returns a block of n words (n rounded up to whole lines when
// lineAligned), its size in words, and whether it was recycled from a free
// list rather than claimed from the bump pointer.
func (a *arena) alloc(n int64, lineAligned bool) (addr Addr, size int64, recycled bool) {
	if n <= 0 {
		panic("machine: Alloc with non-positive size")
	}
	if lineAligned {
		// Round the size up to whole lines so line-aligned blocks never
		// share a cache line and can be recycled by size class.
		n = (n + a.lineWords - 1) &^ (a.lineWords - 1)
	}
	key := n
	if lineAligned {
		key = -n // aligned blocks use a separate size-class namespace
	}
	if a.nFree > 0 {
		if lst := a.free[key]; len(lst) > 0 {
			addr := lst[len(lst)-1]
			a.free[key] = lst[:len(lst)-1]
			a.nFree--
			return addr, n, true
		}
	}
	p := a.next
	if lineAligned {
		p = Addr((int64(p) + a.lineWords - 1) &^ (a.lineWords - 1))
	}
	if p+Addr(n) > a.limit {
		panic(fmt.Sprintf("machine: simulated memory exhausted (%d words requested, %d free)", n, a.limit-a.next))
	}
	a.next = p + Addr(n)
	return p, n, false
}

func (a *arena) release(addr Addr, n int64, lineAligned bool) {
	key := n
	if lineAligned {
		n = (n + a.lineWords - 1) &^ (a.lineWords - 1)
		key = -n
	}
	a.free[key] = append(a.free[key], addr)
	a.nFree++
}

// allocWords allocates n words of simulated memory and returns them
// zeroed. A block from the bump pointer is zero already (see arena), so
// only a recycled block is cleared.
func (m *Machine) allocWords(n int64, aligned bool) Addr {
	addr, size, recycled := m.alloc.alloc(n, aligned)
	if recycled {
		clear(m.words[addr : addr+Addr(size)])
	}
	return addr
}

func (m *Machine) freeWords(addr Addr, n int64, aligned bool) {
	// Blocks are recycled within the namespace they were allocated from,
	// so callers must pass the original size AND whether the block came
	// from the aligned allocator — the size classes differ (aligned
	// blocks are rounded up to whole lines).
	m.alloc.release(addr, n, aligned)
}

// AllocRaw allocates n zeroed words without charging any CPU time.
// Intended for Setup-phase population. Writes must stay inside the block
// (see arena).
func (m *Machine) AllocRaw(n int64) Addr { return m.allocWords(n, false) }

// AllocRawAligned allocates n zeroed, line-aligned words without charging
// CPU time. Writes must stay inside the block (see arena).
func (m *Machine) AllocRawAligned(n int64) Addr { return m.allocWords(n, true) }

// HeapUsed reports how many words have been claimed from the bump pointer.
func (m *Machine) HeapUsed() int64 { return int64(m.alloc.next) }
