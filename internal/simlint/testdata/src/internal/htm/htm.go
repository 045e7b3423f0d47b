// Package htm is a minimal stub of the simulator's HTM package for the
// simlint fixtures: an abort signal raised by panic and its classifier.
// Its import path matches the real package so the analyzers' path-based
// matching applies.
package htm

import "hrwle/internal/machine"

type abortSignal struct{ cause int }

type Thread struct{ sig abortSignal }

func (t *Thread) abort() {
	t.sig = abortSignal{cause: 1}
	panic(&t.sig)
}

func (t *Thread) Load(a machine.Addr) uint64 {
	if a == 0 {
		t.abort()
	}
	return 0
}

func (t *Thread) Store(a machine.Addr, v uint64) {
	if a == 0 {
		t.abort()
	}
}

// IsAbortSignal reports whether a recovered panic value is the abort
// signal, mirroring the real package's classifier.
func IsAbortSignal(r any) bool {
	_, ok := r.(*abortSignal)
	return ok
}
