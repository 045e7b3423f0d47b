package harness

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestParallelMatchesSerial is the determinism contract of RunClosed:
// the same sweep on a worker pool must return bit-identical Results in the
// same order, and render byte-identical figure output. Only wall-clock
// time may differ. A fresh fig10 sweep per run makes its points fill the
// shared SGL@1 baseline cache concurrently.
func TestParallelMatchesSerial(t *testing.T) {
	fig10 := func() *FigureSpec {
		spec := *Registry()["fig10"]
		spec.Threads, spec.WritePcts = []int{2, 4}, []int{1, 50}
		return &spec
	}
	for _, mk := range []func() *FigureSpec{goldenSpec, fig10} {
		spec := mk()
		serial := RunClosed(spec, 0.02, Attach{}, 1, nil)
		for _, workers := range []int{2, 4, 16} {
			parallel := RunClosed(mk(), 0.02, Attach{}, workers, nil)
			if len(parallel) != len(serial) {
				t.Fatalf("%s workers=%d: %d results, want %d", spec.ID, workers, len(parallel), len(serial))
			}
			for i := range serial {
				if !sameResult(parallel[i], serial[i]) {
					t.Errorf("%s workers=%d point %d: parallel result diverged\nserial:   %+v\nparallel: %+v",
						spec.ID, workers, i, serial[i], parallel[i])
				}
			}
			var a, b bytes.Buffer
			Print(&a, spec, serial)
			Print(&b, spec, parallel)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("%s workers=%d: printed figure differs from serial output", spec.ID, workers)
			}
		}
	}
}

// TestParallelPoolProgress exercises the pool's shared progress writer —
// primarily food for the race detector (go test -race): concurrent points
// reporting through one writer and one result slice.
func TestParallelPoolProgress(t *testing.T) {
	spec := goldenSpec()
	var progress bytes.Buffer
	results := RunClosed(spec, 0.02, Attach{}, 4, &progress)
	if n := bytes.Count(progress.Bytes(), []byte("\n")); n != len(results) {
		t.Errorf("progress lines = %d, want one per point (%d)", n, len(results))
	}
}

// TestParallelPanicPropagates checks that a point panicking inside a
// worker goroutine surfaces on the caller (a worker panic would otherwise
// kill the process with no recovery opportunity).
func TestParallelPanicPropagates(t *testing.T) {
	spec := &FigureSpec{
		ID: "boom", Schemes: []string{"A", "B"}, Threads: []int{1, 2}, WritePcts: []int{10},
		Point: func(ctx PointCtx, scheme string, threads, writePct int, scale float64) Result {
			if scheme == "B" && threads == 2 {
				panic("deadline exceeded (test)")
			}
			return Result{Cycles: 1}
		},
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in a pooled point did not propagate to the caller")
		}
		if fmt.Sprint(r) != "deadline exceeded (test)" {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	RunClosed(spec, 1, Attach{}, 4, nil)
}

// TestParallelMetricsMatchesSerial pins the parallel metrics exporter to
// the serial one: same Results, identical per-scheme metrics.
func TestParallelMetricsMatchesSerial(t *testing.T) {
	spec := goldenSpec()
	serial := RunClosed(spec, 0.02, Attach{Metrics: true}, 1, nil)
	parallel := RunClosed(spec, 0.02, Attach{Metrics: true}, 4, nil)
	serialMetrics, parallelMetrics := spec.RunMetrics(serial), spec.RunMetrics(parallel)
	var serialEvents, parallelEvents int64
	for i := range serial {
		serialEvents += serial[i].Observed.Collector.Total()
		parallelEvents += parallel[i].Observed.Collector.Total()
		if !sameResult(parallel[i], serial[i]) {
			t.Errorf("point %d: parallel metrics run diverged: %+v vs %+v", i, parallel[i], serial[i])
		}
	}
	if serialEvents != parallelEvents {
		t.Errorf("traced event totals differ: serial %d, parallel %d", serialEvents, parallelEvents)
	}
	if serialEvents == 0 {
		t.Error("metrics run traced no events")
	}
	if !bytes.Equal(metricsJSON(t, serialMetrics), metricsJSON(t, parallelMetrics)) {
		t.Error("parallel metrics differ from serial metrics")
	}
}

// TestForEachPlacesByIndex: every index runs exactly once and its result
// lands in its own slot, serially, on a pool, and with more workers than
// indices.
func TestForEachPlacesByIndex(t *testing.T) {
	const n = 37
	for _, workers := range []int{-1, 0, 1, 3, n + 5} {
		out := make([]int, n)
		if err := ForEach(n, workers, func(i int) error {
			out[i] += i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Errorf("workers=%d: slot %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if err := ForEach(0, 4, func(int) error { panic("called") }); err != nil {
		t.Fatal(err)
	}
}

// lowFailsLast returns a ForEach body in which index 6 fails by panicking
// and index 2 fails with low only after index 6 has failed, so the higher
// index always fails first in time.
func lowFailsLast(low func() error) func(int) error {
	highFailed := make(chan struct{})
	return func(i int) error {
		switch i {
		case 2:
			<-highFailed
			return low()
		case 6:
			defer close(highFailed)
			panic("high")
		}
		return nil
	}
}

// TestForEachLowestError: the lowest failing index decides the outcome,
// whichever failure happened first, at any worker count.
func TestForEachLowestError(t *testing.T) {
	errLow := errors.New("low")
	if err := ForEach(8, 4, lowFailsLast(func() error { return errLow })); !errors.Is(err, errLow) {
		t.Errorf("pool: got %v, want the index-2 error", err)
	}
	serial := func(i int) error {
		if i >= 2 {
			return fmt.Errorf("index %d", i)
		}
		return nil
	}
	if err := ForEach(8, 1, serial); err == nil || err.Error() != "index 2" {
		t.Errorf("serial: got %v, want index 2", err)
	}
}

// TestForEachLowestPanic: a panic at the lowest failing index is re-raised
// even though a higher index panicked first.
func TestForEachLowestPanic(t *testing.T) {
	defer func() {
		if r := recover(); fmt.Sprint(r) != "low" {
			t.Fatalf("re-raised %v, want the index-2 panic", r)
		}
	}()
	ForEach(8, 4, lowFailsLast(func() error { panic("low") }))
	t.Fatal("ForEach returned instead of re-raising")
}
