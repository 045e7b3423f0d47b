package harness

import (
	"io"
	"sync"
)

// ForEach calls fn(i) for every i in [0, n) on a bounded pool of workers
// goroutines, or serially in index order when workers <= 1. fn must write
// only state owned by index i (its own result slot). Once every call has
// returned, ForEach re-raises the panic, or returns the error, of the
// lowest failing index, so a failing sweep reports the same failure at any
// worker count. Serially, the indices after the first failure are skipped;
// that failure is still the lowest.
//
//simlint:allow abortflow the worker recover carries point panics across the pool join; the pooled abort signal never reaches it (htm.Thread.Try consumes it inside the simulation) and the lowest failing index's value is re-panicked verbatim after wg.Wait
func ForEach(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	panics := make([]any, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func() {
					defer func() { panics[i] = recover() }()
					errs[i] = fn(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()

	for i := 0; i < n; i++ {
		if panics[i] != nil {
			panic(panics[i])
		}
		if errs[i] != nil {
			return errs[i]
		}
	}
	return nil
}

// syncWriter makes a progress writer safe for the concurrent points of a
// ForEach sweep: each Write (one progress line) is applied whole. A nil
// writer stays nil, meaning no progress.
func syncWriter(w io.Writer) io.Writer {
	if w == nil {
		return nil
	}
	return &lockedWriter{w: w}
}

type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}
