package machine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMemoBuildsEachKeyOnce checks the memo's one-build guarantee under
// contention: many concurrent callers of one key run its build exactly
// once and all get the value it built. Run under -race, it also checks
// that the memo's bookkeeping is race-free.
func TestMemoBuildsEachKeyOnce(t *testing.T) {
	get := Memo[int, *int]()
	var builds atomic.Int32
	build := func() *int {
		builds.Add(1)
		time.Sleep(10 * time.Millisecond) // hold the build open while the others arrive
		return new(int)
	}
	const callers = 16
	got := make([]*int, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = get(7, build)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent callers of one key ran %d builds, want 1", callers, n)
	}
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, p, got[0])
		}
	}
	if p := get(7, build); p != got[0] || builds.Load() != 1 {
		t.Fatalf("a later call rebuilt the key (%p, %d builds)", p, builds.Load())
	}
	if p := get(8, build); p == got[0] || builds.Load() != 2 {
		t.Fatalf("a second key shared the first key's value (%p, %d builds)", p, builds.Load())
	}
}

// TestMemoKeysBuildIndependently checks that a caller of one key never
// waits for another key's build: key 1's build finishes only once key 2
// has been built and returned on another goroutine, so a memo that
// serialized its builds would deadlock here.
func TestMemoKeysBuildIndependently(t *testing.T) {
	get := Memo[int, int]()
	other := make(chan int)
	go func() { other <- get(2, func() int { return 2 }) }()
	done := make(chan int)
	go func() {
		done <- get(1, func() int {
			select {
			case v := <-other:
				return v - 1
			case <-time.After(10 * time.Second):
				return -1
			}
		})
	}()
	if v := <-done; v != 1 {
		t.Fatalf("key 1 built %d: its build waited out key 2's (or key 2 waited on it)", v)
	}
}

// TestMemoBuildPanicRepeats checks that a build that panics is not cached
// as a zero value: every caller of its key sees the panic.
func TestMemoBuildPanicRepeats(t *testing.T) {
	get := Memo[string, int]()
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("call %d recovered %v, want the build's panic", i, r)
				}
			}()
			get("k", func() int { panic("boom") })
		}()
	}
}
