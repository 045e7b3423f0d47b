package hashmap

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
)

// Worker runs one thread's map operations, each in its own critical
// section of lock, with the abort-safe node protocol: an insert links a
// node prepared outside the section and keeps it as the spare for the next
// insert when the key was already present; a remove recycles the unlinked
// node after the section commits.
//
// The critical-section closures are built once and communicate through
// the Worker's fields: closures passed through the rwlock.Lock interface
// escape, so per-op literals would allocate on every operation.
type Worker struct {
	h     *Map
	lock  rwlock.Lock
	th    *htm.Thread
	key   uint64
	spare machine.Addr
	gone  machine.Addr
	used  bool

	insertCS, removeCS, lookupCS func()
}

// NewWorker returns thread th's Worker over h under lock.
func (h *Map) NewWorker(lock rwlock.Lock, th *htm.Thread) *Worker {
	w := &Worker{h: h, lock: lock, th: th}
	w.insertCS = func() { w.used = h.Insert(th, w.key, w.key, w.spare) }
	w.removeCS = func() { w.gone = h.Remove(th, w.key) }
	w.lookupCS = func() { h.Lookup(th, w.key) }
	return w
}

// Insert adds key→key in a write section and reports whether a node was
// linked (false: key was present and its value rewritten).
func (w *Worker) Insert(key uint64) bool {
	if w.spare == 0 {
		w.spare = w.h.PrepareNode(w.th)
	}
	w.key, w.used = key, false
	w.lock.Write(w.th, w.insertCS)
	if w.used {
		w.spare = 0
	}
	return w.used
}

// Remove unlinks key in a write section and recycles its node; it reports
// whether key was present.
func (w *Worker) Remove(key uint64) bool {
	w.key, w.gone = key, 0
	w.lock.Write(w.th, w.removeCS)
	if w.gone == 0 {
		return false
	}
	w.h.Recycle(w.th, w.gone)
	return true
}

// Lookup searches for key in a read section.
func (w *Worker) Lookup(key uint64) {
	w.key = key
	w.lock.Read(w.th, w.lookupCS)
}
