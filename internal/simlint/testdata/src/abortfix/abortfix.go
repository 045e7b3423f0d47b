// Package abortfix is a simlint fixture for the abortflow analyzer:
// recover handlers that swallow or retain the pooled abort signal, next
// to the compliant classify-and-rethrow shape.
package abortfix

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
)

var leaked any

// swallow recovers around a section body without classifying what it
// caught: an HTM abort would be silently eaten here.
func swallow(body func()) {
	defer func() {
		recover() // want "may swallow the HTM abort signal"
	}()
	body()
}

// swallowStore is swallow around a transactional store: the rule holds
// every deferred recover to it, whatever the deferring function calls.
func swallowStore(t *htm.Thread, a machine.Addr) {
	defer func() {
		recover() // want "may swallow the HTM abort signal"
	}()
	t.Store(a, 1)
}

// retain re-panics (so it does not swallow) but parks the recovered value
// in a package variable first — retaining the pooled payload.
func retain(body func()) {
	defer func() {
		r := recover()
		leaked = r // want "retained past the handler"
		panic(r)
	}()
	body()
}

// classified is the compliant shape: classify with htm.IsAbortSignal,
// re-panic everything not owned, keep nothing.
func classified(body func()) (aborted bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if !htm.IsAbortSignal(r) {
			panic(r)
		}
		aborted = true
	}()
	body()
	return false
}

// repanics is the other compliant shape: unconditionally re-raising
// whatever was recovered never swallows the signal.
func repanics(body func()) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(error); ok {
			panic(r)
		}
		panic(r)
	}()
	body()
}
