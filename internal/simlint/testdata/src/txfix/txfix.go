// Package txfix is a simlint fixture for the txdiscipline analyzer:
// critical-section bodies mutating captured host state in
// non-restartable ways.
package txfix

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
)

// RWLock mimics the rwlock.Lock critical-section surface the analyzer
// keys on: methods named Read/Write of shape func(*htm.Thread, func()).
type RWLock struct{}

func (l *RWLock) Read(t *htm.Thread, cs func()) { cs() }

func (l *RWLock) Write(t *htm.Thread, cs func()) { cs() }

func capturedMutations(l *RWLock, t *htm.Thread, a machine.Addr) (int, uint64) {
	count := 0
	var sum uint64
	idx := map[int]uint64{}
	l.Write(t, func() {
		count++            // want "increments captured"
		sum += t.Load(a)   // want "compound-assigns captured"
		idx[1] = t.Load(a) // want "stores into captured map"
		delete(idx, 1)     // want "deletes from captured map"
	})
	return count, sum
}

// hoisted shows the ident-bound body form (cs := func(){...}; l.Write(t, cs)).
func hoisted(l *RWLock, t *htm.Thread) int {
	n := 0
	cs := func() {
		n++ // want "increments captured"
	}
	l.Write(t, cs)
	return n
}

// compliant is the blessed shape: captured state only sees plain
// (restartable) reassignment, and locals declared inside the body may
// accumulate.
func compliant(l *RWLock, t *htm.Thread, a machine.Addr) uint64 {
	var got uint64
	l.Read(t, func() {
		v := t.Load(a)
		v++
		got = v
	})
	return got
}
