package machine

import "sync"

// Memo returns a cache for a pure per-sweep input: a value that is a
// function of its key alone, costly to build, and read by many points of
// a sweep (service's Zipf tables, fig10's SGL@1 baseline). get(k, build)
// returns the value cached under k, calling build to make it on the first
// request for k. Each key is built once per process, by whichever caller
// asks first; a caller of another key never waits for that build, and a
// caller of the same key waits for it and gets the same value. A build
// that panics re-panics in every caller of its key.
//
// The value must depend on nothing but k — build's captured variables
// must all be fixed by k — and must not be mutated once built, since
// every caller of the key shares it.
//
//simlint:allow determinism the memo is host-side caching of pure per-sweep inputs (a Zipf table per (n, s), fig10's SGL@1 baseline per key); the mutex and sync.OnceValue only decide which sweep worker builds a value that is a function of its key alone, so they never order a simulated event
func Memo[K comparable, V any]() (get func(k K, build func() V) V) {
	var mu sync.Mutex
	vals := map[K]func() V{}
	return func(k K, build func() V) V {
		mu.Lock()
		v, ok := vals[k]
		if !ok {
			v = sync.OnceValue(build)
			vals[k] = v
		}
		mu.Unlock()
		return v()
	}
}
