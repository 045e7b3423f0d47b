// Package hashmap implements the synthetic benchmark of the paper's
// sensitivity study (§4.1): a hashmap of l buckets, each a linked list,
// protected by a single read-write lock. Varying l and the initial items
// per bucket controls the probability of HTM capacity exceptions and the
// likelihood of conflicts:
//
//	l=1,     200 items  → high capacity, high contention  (Fig. 3)
//	l=many,  200 items  → high capacity, low contention   (Fig. 4)
//	l=1,      50 items  → low capacity,  high contention  (Fig. 5)
//	l=many,   50 items  → low capacity,  low contention   (Fig. 6)
//
// Nodes are cache-line-aligned (as malloc'd nodes effectively are), so a
// traversal of n nodes occupies n lines of HTM read capacity.
//
// Memory management is abort-safe: critical-section bodies may be executed
// speculatively and re-run, so they must not mutate host-side allocator
// state. Inserts consume a node prepared by the caller outside the
// critical section; removes unlink the node inside the section and report
// it for the caller to free after commit.
package hashmap

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
)

// Node field offsets within a line-aligned node.
const (
	offKey   = 0
	offValue = 1
	offNext  = 2
	// nodeWords is the allocation size; line alignment pads it to a line.
	nodeWords = 3
)

// Map is a fixed-bucket-count chained hashmap in simulated memory.
type Map struct {
	m        *machine.Machine
	buckets  machine.Addr
	nbuckets uint64
}

// New allocates a hashmap with nbuckets chains. The bucket head array is
// allocated raw (setup time).
func New(m *machine.Machine, nbuckets int64) *Map {
	if nbuckets <= 0 {
		panic("hashmap: nbuckets must be positive")
	}
	return &Map{m: m, buckets: m.AllocRawAligned(nbuckets), nbuckets: uint64(nbuckets)}
}

// Buckets returns the number of buckets.
func (h *Map) Buckets() int64 { return int64(h.nbuckets) }

func (h *Map) bucketAddr(key uint64) machine.Addr {
	return h.buckets + machine.Addr(key%h.nbuckets)
}

// Populate fills the map so bucket b contains keys b, b+l, ..., b+(items-1)*l
// (i.e. key k chains in bucket k mod l), linking nodes directly with raw
// stores — O(total items), no traversals, no virtual time. Keys are
// inserted in decreasing i order so that key b+i*l sits at depth items-1-i.
//
// All nodes come from one line-aligned block, one node per line-rounded
// stride, in (bucket, i) order. Populate runs at set-up, before anything
// is freed, so these are the addresses per-node AllocRawAligned(nodeWords)
// calls would return, and a node removed later is recycled in the same
// size class PrepareNode allocates from.
func (h *Map) Populate(items int64) {
	if items <= 0 {
		return
	}
	l := int64(h.nbuckets)
	lw := h.m.Cfg.LineWords
	stride := (int64(nodeWords) + lw - 1) &^ (lw - 1)
	n := h.m.AllocRawAligned(l * items * stride)
	for b := int64(0); b < l; b++ {
		head := uint64(0)
		for i := int64(0); i < items; i, n = i+1, n+machine.Addr(stride) {
			h.m.Poke(n+offKey, uint64(b+i*l))
			h.m.Poke(n+offValue, uint64(i))
			h.m.Poke(n+offNext, head)
			head = uint64(n)
		}
		h.m.Poke(h.buckets+machine.Addr(b), head)
	}
}

// RawBucket returns the address of the bucket-head word for key. It lets
// other packages construct chains directly at build time (raw stores, no
// virtual cycles), the way Populate does internally.
func (h *Map) RawBucket(key uint64) machine.Addr { return h.bucketAddr(key) }

// Lookup searches for key and returns its value. Call inside a read (or
// write) critical section.
func (h *Map) Lookup(t *htm.Thread, key uint64) (uint64, bool) {
	n := t.Load(h.bucketAddr(key))
	for n != 0 {
		a := machine.Addr(n)
		if t.Load(a+offKey) == key {
			return t.Load(a + offValue), true
		}
		n = t.Load(a + offNext)
	}
	return 0, false
}

// PrepareNode allocates (outside any critical section) a node for a
// subsequent Insert. If the insert does not consume it, pass it back via
// Recycle or to another Insert.
func (h *Map) PrepareNode(t *htm.Thread) machine.Addr {
	return t.AllocAligned(nodeWords)
}

// Recycle returns an unused or unlinked node to the allocator. Call only
// outside critical sections (allocator state is not speculative).
func (h *Map) Recycle(t *htm.Thread, node machine.Addr) {
	if node != 0 {
		t.FreeAligned(node, nodeWords)
	}
}

// Insert adds key→value using the caller-provided node, or updates the
// value in place if key is already present. It returns true when node was
// linked into the map (consumed). Call inside a write critical section;
// the traversal reads the whole chain (duplicate check), which is what
// makes write sections capacity-hungry for plain HTM.
func (h *Map) Insert(t *htm.Thread, key, value uint64, node machine.Addr) bool {
	ba := h.bucketAddr(key)
	n := t.Load(ba)
	for n != 0 {
		a := machine.Addr(n)
		if t.Load(a+offKey) == key {
			t.Store(a+offValue, value)
			return false
		}
		n = t.Load(a + offNext)
	}
	t.Store(node+offKey, key)
	t.Store(node+offValue, value)
	t.Store(node+offNext, t.Load(ba))
	t.Store(ba, uint64(node))
	return true
}

// Remove unlinks key and returns the removed node (0 if absent). The
// caller must Recycle the node after the critical section commits — never
// inside it, since a speculative abort would re-run the body.
func (h *Map) Remove(t *htm.Thread, key uint64) machine.Addr {
	ba := h.bucketAddr(key)
	prev := machine.Addr(0) // 0 = head pointer itself
	n := t.Load(ba)
	for n != 0 {
		a := machine.Addr(n)
		if t.Load(a+offKey) == key {
			next := t.Load(a + offNext)
			if prev == 0 {
				t.Store(ba, next)
			} else {
				t.Store(prev+offNext, next)
			}
			return a
		}
		prev = a
		n = t.Load(a + offNext)
	}
	return 0
}

// Size walks the whole map raw (no virtual time) and returns the number of
// nodes. For tests and validation only.
func (h *Map) Size() int64 {
	var total int64
	for b := uint64(0); b < h.nbuckets; b++ {
		n := h.m.Peek(h.buckets + machine.Addr(b))
		for n != 0 {
			total++
			n = h.m.Peek(machine.Addr(n) + offNext)
		}
	}
	return total
}

// Snapshot walks the whole map raw and returns its contents. For tests.
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

// CheckChains verifies that every key chains in its home bucket and that
// no chain contains duplicates. It returns a descriptive string on the
// first violation, or "".
func (h *Map) CheckChains() string {
	for b := uint64(0); b < h.nbuckets; b++ {
		seen := map[uint64]bool{}
		n := h.m.Peek(h.buckets + machine.Addr(b))
		steps := int64(0)
		for n != 0 {
			a := machine.Addr(n)
			k := h.m.Peek(a + offKey)
			if k%h.nbuckets != b {
				return "key in wrong bucket"
			}
			if seen[k] {
				return "duplicate key in chain"
			}
			seen[k] = true
			if steps++; steps > 1<<24 {
				return "cycle in chain"
			}
			n = h.m.Peek(a + offNext)
		}
	}
	return ""
}
