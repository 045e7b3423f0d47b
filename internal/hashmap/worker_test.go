package hashmap

import (
	"testing"

	"hrwle/internal/locks"
	"hrwle/internal/machine"
)

// TestWorkerNodeProtocol pins the Worker's node bookkeeping: an insert of
// a present key keeps its prepared node as the spare (no heap growth), an
// insert of a new key links the spare, and a remove recycles the unlinked
// node so the next PrepareNode hands the same address back.
func TestWorkerNodeProtocol(t *testing.T) {
	sys := newSys(1, 1<<16, 1)
	h := New(sys.M, 4)
	h.Populate(6)
	sys.M.Run(1, func(c *machine.CPU) {
		th := sys.Thread(0)
		w := h.NewWorker(locks.NewSGL(sys), th)
		if w.Insert(9) {
			t.Fatal("insert of present key 9 linked a node")
		}
		spare, heap := w.spare, sys.M.HeapUsed()
		if spare == 0 {
			t.Fatal("no spare node kept after an insert of a present key")
		}
		if w.Insert(10) {
			t.Fatal("insert of present key 10 linked a node")
		}
		if w.spare != spare || sys.M.HeapUsed() != heap {
			t.Fatalf("second present-key insert: spare %d heap %d, want spare %d heap %d",
				w.spare, sys.M.HeapUsed(), spare, heap)
		}
		if !w.Insert(1000) || w.spare != 0 {
			t.Fatalf("insert of new key 1000: spare %d, want it linked", w.spare)
		}
		if !w.Remove(1000) {
			t.Fatal("key 1000 not removed")
		}
		if got := h.PrepareNode(th); got != spare {
			t.Fatalf("PrepareNode after remove = %d, want the recycled node %d", got, spare)
		}
	})
	if got := h.Size(); got != 24 {
		t.Errorf("Size = %d, want 24", got)
	}
}
