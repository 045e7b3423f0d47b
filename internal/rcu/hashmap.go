package rcu

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// Node layout (line-aligned), mirroring the benchmark hashmap's nodes.
const (
	offKey    = 0
	offValue  = 1
	offNext   = 2
	nodeWords = 3
)

// Map is the RCU-protected chained hashmap: the "tailored code" the paper
// contrasts RW-LE against. Readers traverse with no synchronization at
// all; updaters follow the RCU discipline — publish fully-initialized
// nodes with a single pointer store, never reuse unlinked memory before a
// grace period, and copy nodes instead of updating values in place.
type Map struct {
	m        *machine.Machine
	d        *Domain
	buckets  machine.Addr
	nbuckets uint64
}

// NewMap allocates an RCU hashmap with nbuckets chains.
func NewMap(m *machine.Machine, d *Domain, nbuckets int64) *Map {
	return &Map{m: m, d: d, buckets: m.AllocRawAligned(nbuckets), nbuckets: uint64(nbuckets)}
}

// Populate fills the map exactly like the benchmark hashmap's Populate.
func (h *Map) Populate(items int64) {
	l := int64(h.nbuckets)
	for b := int64(0); b < l; b++ {
		head := uint64(0)
		for i := int64(0); i < items; i++ {
			n := h.m.AllocRawAligned(nodeWords)
			h.m.Poke(n+offKey, uint64(b+i*l))
			h.m.Poke(n+offValue, uint64(i))
			h.m.Poke(n+offNext, head)
			head = uint64(n)
		}
		h.m.Poke(h.buckets+machine.Addr(b), head)
	}
}

func (h *Map) bucketAddr(key uint64) machine.Addr {
	return h.buckets + machine.Addr(key%h.nbuckets)
}

// Lookup runs as an RCU read-side critical section and accounts itself as
// an application operation.
func (h *Map) Lookup(t *htm.Thread, key uint64) (val uint64, ok bool) {
	h.d.Read(t, func() {
		n := t.Load(h.bucketAddr(key))
		for n != 0 {
			a := machine.Addr(n)
			if t.Load(a+offKey) == key {
				val, ok = t.Load(a+offValue), true
				return
			}
			n = t.Load(a + offNext)
		}
	})
	return val, ok
}

// Insert adds or updates key→value. Updaters serialize on the domain
// mutex; an in-place value update is forbidden under RCU, so an existing
// node is replaced by a copy (copy-update), and the old node is reclaimed
// after a grace period. This is exactly the tailored surgery the paper
// says RCU demands of every data structure.
func (h *Map) Insert(t *htm.Thread, key, value uint64) {
	t.BeginCS(true)
	h.d.UpdateLock(t)
	var retired machine.Addr

	ba := h.bucketAddr(key)
	prev := machine.Addr(0)
	n := t.Load(ba)
	for n != 0 {
		a := machine.Addr(n)
		if t.Load(a+offKey) == key {
			// Copy-update: build the replacement, splice it in with one
			// pointer store, retire the old node.
			repl := t.AllocAligned(nodeWords)
			t.Store(repl+offKey, key)
			t.Store(repl+offValue, value)
			t.Store(repl+offNext, t.Load(a+offNext))
			if prev == 0 {
				t.Store(ba, uint64(repl))
			} else {
				t.Store(prev+offNext, uint64(repl))
			}
			retired = a
			break
		}
		prev = a
		n = t.Load(a + offNext)
	}
	if n == 0 {
		// Not found: publish a fully initialized node at the head.
		node := t.AllocAligned(nodeWords)
		t.Store(node+offKey, key)
		t.Store(node+offValue, value)
		t.Store(node+offNext, t.Load(ba))
		t.C.Fence() // publication barrier before the linking store
		t.Store(ba, uint64(node))
	}
	h.d.UpdateUnlock(t)
	if retired != 0 {
		h.d.Synchronize(t)
		t.FreeAligned(retired, nodeWords)
	}
	t.EndCS(true, stats.CommitSGL, 0)
}

// Remove unlinks key; the node is reclaimed only after a grace period, so
// concurrent readers still traversing through it stay safe.
func (h *Map) Remove(t *htm.Thread, key uint64) bool {
	t.BeginCS(true)
	h.d.UpdateLock(t)
	ba := h.bucketAddr(key)
	prev := machine.Addr(0)
	n := t.Load(ba)
	var victim machine.Addr
	for n != 0 {
		a := machine.Addr(n)
		if t.Load(a+offKey) == key {
			next := t.Load(a + offNext)
			if prev == 0 {
				t.Store(ba, next)
			} else {
				t.Store(prev+offNext, next)
			}
			victim = a
			break
		}
		prev = a
		n = t.Load(a + offNext)
	}
	h.d.UpdateUnlock(t)
	if victim != 0 {
		h.d.Synchronize(t)
		t.FreeAligned(victim, nodeWords)
	}
	t.EndCS(true, stats.CommitSGL, 0)
	return victim != 0
}

// Snapshot walks the map raw (tests only).
func (h *Map) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for b := uint64(0); b < h.nbuckets; b++ {
		n := h.m.Peek(h.buckets + machine.Addr(b))
		for n != 0 {
			a := machine.Addr(n)
			out[h.m.Peek(a+offKey)] = h.m.Peek(a + offValue)
			n = h.m.Peek(a + offNext)
		}
	}
	return out
}
