package hashmap

import (
	"testing"
	"testing/quick"

	"hrwle/internal/core"
	"hrwle/internal/htm"
	"hrwle/internal/locks"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
)

func newSys(cpus int, memWords int64, seed uint64) *htm.System {
	m := machine.New(machine.Config{CPUs: cpus, MemWords: memWords, Seed: seed})
	return htm.NewSystem(m, htm.Config{})
}

func TestPopulate(t *testing.T) {
	sys := newSys(1, 1<<20, 1)
	h := New(sys.M, 8)
	h.Populate(25)
	if got := h.Size(); got != 200 {
		t.Errorf("Size = %d, want 200", got)
	}
	if msg := h.CheckChains(); msg != "" {
		t.Error(msg)
	}
	snap := h.Snapshot()
	for k := uint64(0); k < 200; k++ {
		if _, ok := snap[k]; !ok {
			t.Fatalf("key %d missing after populate", k)
		}
	}
}

// TestPopulateLayout pins that Populate's one-block layout places every
// node where a per-node AllocRawAligned(nodeWords) call in (bucket, i)
// order would have, so populated maps keep their simulated addresses (and
// with them every line, conflict and cycle) at any line size.
func TestPopulateLayout(t *testing.T) {
	const buckets, items = 5, 7
	for _, lw := range []int64{1, 4, 16} {
		cfg := machine.Config{CPUs: 1, MemWords: 1 << 14, LineWords: lw, Seed: 1}
		h := New(machine.New(cfg), buckets)
		h.Populate(items)

		twin := machine.New(cfg)
		New(twin, buckets)
		var want [buckets][items]machine.Addr
		for b := range want {
			for i := range want[b] {
				want[b][i] = twin.AllocRawAligned(nodeWords)
			}
		}
		for b := range want {
			n := h.m.Peek(h.buckets + machine.Addr(b))
			for i := items - 1; i >= 0; i-- { // head is the last node linked
				if machine.Addr(n) != want[b][i] {
					t.Fatalf("LineWords %d: bucket %d node %d at %d, per-node allocation gives %d", lw, b, i, n, want[b][i])
				}
				n = h.m.Peek(machine.Addr(n) + offNext)
			}
			if n != 0 {
				t.Fatalf("LineWords %d: bucket %d chain longer than %d", lw, b, items)
			}
		}
		if got, wantUsed := h.m.HeapUsed(), twin.HeapUsed(); got != wantUsed {
			t.Errorf("LineWords %d: heap used %d, per-node allocation uses %d", lw, got, wantUsed)
		}
	}
}

// TestPopulatedNodeRecycles checks that a node carved out of Populate's
// block is recycled in PrepareNode's size class: the next PrepareNode
// hands the removed node back, zeroed.
func TestPopulatedNodeRecycles(t *testing.T) {
	sys := newSys(1, 1<<16, 1)
	h := New(sys.M, 4)
	h.Populate(6)
	sys.M.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		node := h.Remove(th, 9)
		if node == 0 {
			t.Fatal("key 9 not found")
		}
		h.Recycle(th, node)
		if got := h.PrepareNode(th); got != node {
			t.Fatalf("PrepareNode returned %d, want the removed node %d", got, node)
		}
		for w := machine.Addr(0); w < nodeWords; w++ {
			if v := sys.M.Peek(node + w); v != 0 {
				t.Fatalf("recycled node word %d reads %d, want 0", w, v)
			}
		}
	})
}

func TestSequentialOpsMatchModel(t *testing.T) {
	sys := newSys(1, 1<<20, 2)
	h := New(sys.M, 4)
	model := map[uint64]uint64{}
	sys.M.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		for i := 0; i < 500; i++ {
			key := uint64(c.Intn(40))
			switch c.Intn(3) {
			case 0: // insert/update
				val := c.Rand64()
				node := h.PrepareNode(th)
				if !h.Insert(th, key, val, node) {
					h.Recycle(th, node)
				}
				model[key] = val
			case 1: // remove
				if n := h.Remove(th, key); n != 0 {
					h.Recycle(th, n)
					if _, ok := model[key]; !ok {
						t.Fatalf("removed key %d not in model", key)
					}
				} else if _, ok := model[key]; ok {
					t.Fatalf("failed to remove present key %d", key)
				}
				delete(model, key)
			default: // lookup
				v, ok := h.Lookup(th, key)
				mv, mok := model[key]
				if ok != mok || (ok && v != mv) {
					t.Fatalf("lookup(%d) = (%d,%v), model (%d,%v)", key, v, ok, mv, mok)
				}
			}
		}
	})
	if msg := h.CheckChains(); msg != "" {
		t.Error(msg)
	}
	snap := h.Snapshot()
	if len(snap) != len(model) {
		t.Errorf("size %d, model %d", len(snap), len(model))
	}
	for k, v := range model {
		if snap[k] != v {
			t.Errorf("key %d = %d, model %d", k, snap[k], v)
		}
	}
}

func TestOpSequenceProperty(t *testing.T) {
	// Property: any op sequence leaves the map equal to a Go map model.
	type op struct {
		Kind byte
		Key  uint8
		Val  uint8
	}
	check := func(ops []op) bool {
		sys := newSys(1, 1<<20, 3)
		h := New(sys.M, 3)
		model := map[uint64]uint64{}
		good := true
		sys.M.Run(1, func(c *machine.CPU) {
			th := sys.Thread(0)
			for _, o := range ops {
				key, val := uint64(o.Key%16), uint64(o.Val)
				switch o.Kind % 3 {
				case 0:
					node := h.PrepareNode(th)
					if !h.Insert(th, key, val, node) {
						h.Recycle(th, node)
					}
					model[key] = val
				case 1:
					if n := h.Remove(th, key); n != 0 {
						h.Recycle(th, n)
					}
					delete(model, key)
				default:
					v, ok := h.Lookup(th, key)
					mv, mok := model[key]
					if ok != mok || (ok && v != mv) {
						good = false
					}
				}
			}
		})
		if h.CheckChains() != "" {
			return false
		}
		snap := h.Snapshot()
		if len(snap) != len(model) {
			return false
		}
		for k, v := range model {
			if snap[k] != v {
				return false
			}
		}
		return good
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// concurrentStress runs the benchmark op mix under a lock scheme and
// verifies structural invariants and the key-population balance afterwards.
func concurrentStress(t *testing.T, mk rwlock.Factory, seed uint64) {
	t.Helper()
	const threads, buckets, items, iters = 8, 4, 12, 120
	sys := newSys(threads, 1<<21, seed)
	lock := mk(sys)
	h := New(sys.M, buckets)
	h.Populate(items)
	universe := uint64(buckets * items)
	inserted := make([]int64, threads)
	removed := make([]int64, threads)
	sys.M.Run(threads, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		var spare machine.Addr
		for i := 0; i < iters; i++ {
			key := uint64(c.Intn(int(universe)))
			if c.Intn(100) < 30 { // write CS
				if c.Intn(2) == 0 {
					if spare == 0 {
						spare = h.PrepareNode(th)
					}
					used := false
					lock.Write(th, func() { used = h.Insert(th, key, key*7, spare) })
					if used {
						inserted[c.ID]++
						spare = 0
					}
				} else {
					var gone machine.Addr
					lock.Write(th, func() { gone = h.Remove(th, key) })
					if gone != 0 {
						removed[c.ID]++
						h.Recycle(th, gone)
					}
				}
			} else {
				lock.Read(th, func() { h.Lookup(th, key) })
			}
		}
	})
	if msg := h.CheckChains(); msg != "" {
		t.Fatalf("%s: %s", lock.Name(), msg)
	}
	var ins, rem int64
	for i := 0; i < threads; i++ {
		ins += inserted[i]
		rem += removed[i]
	}
	want := int64(buckets*items) + ins - rem
	if got := h.Size(); got != want {
		t.Errorf("%s: size %d, want %d (+%d inserted, -%d removed)", lock.Name(), got, want, ins, rem)
	}
}

func TestConcurrentStressRWLE(t *testing.T) {
	concurrentStress(t, func(s *htm.System) rwlock.Lock { return core.New(s, core.Opt()) }, 10)
	concurrentStress(t, func(s *htm.System) rwlock.Lock { return core.New(s, core.Pes()) }, 11)
}

func TestConcurrentStressBaselines(t *testing.T) {
	concurrentStress(t, func(s *htm.System) rwlock.Lock { return locks.NewHLE(s) }, 12)
	concurrentStress(t, func(s *htm.System) rwlock.Lock { return locks.NewSGL(s) }, 13)
	concurrentStress(t, func(s *htm.System) rwlock.Lock { return locks.NewRWL(s) }, 14)
	concurrentStress(t, func(s *htm.System) rwlock.Lock { return locks.NewBRLock(s) }, 15)
}

func TestSingleBucketHighContention(t *testing.T) {
	// The Fig. 3/5 configuration: one bucket, every op collides.
	concurrentStressSingle := func(mk rwlock.Factory, seed uint64) {
		sys := newSys(4, 1<<21, seed)
		lock := mk(sys)
		h := New(sys.M, 1)
		h.Populate(30)
		sys.M.Run(4, func(c *machine.CPU) {
			th := sys.Thread(c.ID)
			var spare machine.Addr
			for i := 0; i < 40; i++ {
				key := uint64(c.Intn(30))
				if c.Intn(2) == 0 {
					if spare == 0 {
						spare = h.PrepareNode(th)
					}
					used := false
					lock.Write(th, func() { used = h.Insert(th, key, 1, spare) })
					if used {
						spare = 0
					}
				} else {
					lock.Read(th, func() { h.Lookup(th, key) })
				}
			}
		})
		if msg := h.CheckChains(); msg != "" {
			t.Fatalf("%s single-bucket: %s", lock.Name(), msg)
		}
	}
	concurrentStressSingle(func(s *htm.System) rwlock.Lock { return core.New(s, core.Opt()) }, 20)
	concurrentStressSingle(func(s *htm.System) rwlock.Lock { return locks.NewHLE(s) }, 21)
}
