package machine_test

import (
	"fmt"
	"strings"
	"testing"

	"hrwle/internal/machine"
)

// The sleeping CPU in these tests waits in a fuzzSleep with no spins: it
// blocks on its first step, and the step after the wake ends the wait.

// waker is a one-step wait that wakes b at time t.
type waker struct {
	b *machine.CPU
	t int64
}

func (w *waker) Step(c *machine.CPU) bool {
	c.Sync()
	c.Wake(w.b, w.t)
	return true
}

// minTimeFirst is a controlled scheduler that picks what the default
// engine picks, the runnable CPU with the smallest (time, ID), so a test
// can run the same body on both Await paths.
type minTimeFirst struct{}

func (minTimeFirst) Pick(_ *machine.CPU, runnable []*machine.CPU) *machine.CPU {
	best := runnable[0]
	for _, c := range runnable[1:] {
		if c.Now() < best.Now() {
			best = c
		}
	}
	return best
}

// highestID is a controlled scheduler that ignores virtual time and always
// runs the highest-ID runnable CPU.
type highestID struct{}

func (highestID) Pick(_ *machine.CPU, runnable []*machine.CPU) *machine.CPU {
	return runnable[len(runnable)-1]
}

// runBoth runs body on a fresh n-CPU machine with a log tracer, once on
// the default engine and once under minTimeFirst, and hands each run's
// machine, events and recovered panic to check.
func runBoth(t *testing.T, n int, body func(*machine.CPU), check func(t *testing.T, m *machine.Machine, evs []machine.Event, panicked any)) {
	t.Helper()
	for _, controlled := range []bool{false, true} {
		name := "engine"
		if controlled {
			name = "controlled"
		}
		t.Run(name, func(t *testing.T) {
			m := machine.New(machine.Config{CPUs: n, MemWords: 1 << 12, Costs: fuzzCosts()})
			if controlled {
				m.SetScheduler(minTimeFirst{})
			}
			log := &machine.LogTracer{}
			m.SetTracer(log)
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				m.Run(n, body)
			}()
			check(t, m, log.Events, panicked)
		})
	}
}

// writers returns the CPU IDs of the write events in stream order.
func writers(evs []machine.Event) []int {
	var ids []int
	for _, e := range evs {
		if e.Kind == machine.EvWrite {
			ids = append(ids, e.CPU)
		}
	}
	return ids
}

// TestWakeRunsInTimeIDOrder: a CPU woken at time t rejoins the schedule at
// its (t, ID) key. CPU 1 blocks at time 0 and CPU 0 wakes it at 100;
// CPUs 0, 1 and 2 then each write at 100 and must do so in ID order,
// ahead of CPU 3, which writes at 101. The slept span is one idle event.
func TestWakeRunsInTimeIDOrder(t *testing.T) {
	const at = 100
	runBoth(t, 4, func(c *machine.CPU) {
		switch c.ID {
		case 0:
			c.Tick(at)
			c.Await(&waker{b: c.Machine().CPU(1), t: at})
		case 1:
			c.Await(&fuzzSleep{})
		case 2:
			c.Tick(at)
		case 3:
			c.Tick(at + 1)
		}
		c.Write(machine.Addr(64+16*c.ID), 1)
	}, func(t *testing.T, m *machine.Machine, evs []machine.Event, panicked any) {
		if panicked != nil {
			t.Fatalf("run panicked: %v", panicked)
		}
		if got, want := fmt.Sprint(writers(evs)), "[0 1 2 3]"; got != want {
			t.Errorf("writes by CPUs %s, want %s", got, want)
		}
		var idle []machine.Event
		for _, e := range evs {
			if e.Kind == machine.EvIdle {
				idle = append(idle, e)
			}
		}
		if want := (machine.Event{Time: at, CPU: 1, Kind: machine.EvIdle, Aux: at}); len(idle) != 1 || idle[0] != want {
			t.Errorf("idle events %+v, want one %+v", idle, want)
		}
		if eng := m.EngineCounters(); eng.Blocks != 1 || eng.Wakes != 1 {
			t.Errorf("engine counters %+v, want one block and one wake", eng)
		}
	})
}

// TestWakeLowersWakerThreshold: a waker that keeps running after Wake must
// yield to the woken CPU once it passes the woken CPU's key. CPU 0 is
// alone on the scheduler, so until the wake its threshold lets it run to
// the end; it wakes CPU 1 at 10 and then writes at 110, 210 and 310. CPU
// 1's write at 10 must come first. Both places Wake can be called from
// are covered: inside a Waiter step and from the body after a Sync.
func TestWakeLowersWakerThreshold(t *testing.T) {
	for _, inStep := range []bool{true, false} {
		name := "body"
		if inStep {
			name = "step"
		}
		t.Run(name, func(t *testing.T) {
			runBoth(t, 2, func(c *machine.CPU) {
				if c.ID == 1 {
					c.Await(&fuzzSleep{})
					c.Write(64, 1)
					return
				}
				c.Tick(10)
				b := c.Machine().CPU(1)
				if inStep {
					c.Await(&waker{b: b, t: 10})
				} else {
					c.Sync()
					c.Wake(b, 10)
				}
				for i := 0; i < 3; i++ {
					c.Tick(100)
					c.Write(80, uint64(i))
				}
			}, func(t *testing.T, _ *machine.Machine, evs []machine.Event, panicked any) {
				if panicked != nil {
					t.Fatalf("run panicked: %v", panicked)
				}
				if got, want := fmt.Sprint(writers(evs)), "[1 0 0 0]"; got != want {
					t.Errorf("writes by CPUs %s, want %s: the waker kept the floor past the woken CPU", got, want)
				}
			})
		})
	}
}

// TestWakePanics: Wake rejects a CPU that is not blocked and a time
// earlier than either CPU's clock. A time-agnostic controlled scheduler
// lets a waker with the earlier clock run after the sleeper has blocked.
func TestWakePanics(t *testing.T) {
	cases := []struct {
		name  string
		sched machine.Scheduler
		body  func(c *machine.CPU)
		want  string
	}{
		{"not blocked", nil, func(c *machine.CPU) {
			if c.ID == 0 {
				c.Sync()
				c.Wake(c.Machine().CPU(1), 0)
			}
		}, "machine: CPU 0 woke CPU 1, which is not blocked"},
		{"before the waker's clock", nil, func(c *machine.CPU) {
			if c.ID == 0 {
				c.Tick(100)
				c.Await(&waker{b: c.Machine().CPU(1), t: 50})
			} else {
				c.Await(&fuzzSleep{})
			}
		}, "machine: CPU 0 woke CPU 1 at 50, before a clock (waker 100, woken 0)"},
		{"before the woken CPU's clock", highestID{}, func(c *machine.CPU) {
			if c.ID == 0 {
				c.Await(&waker{b: c.Machine().CPU(1), t: 100})
			} else {
				c.Tick(200)
				c.Await(&fuzzSleep{})
			}
		}, "machine: CPU 0 woke CPU 1 at 100, before a clock (waker 0, woken 200)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := machine.New(machine.Config{CPUs: 2, MemWords: 1 << 12})
			m.SetScheduler(tc.sched)
			var panicked any
			func() {
				defer func() { panicked = recover() }()
				m.Run(2, tc.body)
			}()
			if panicked != tc.want {
				t.Errorf("Run panicked with %v, want %q", panicked, tc.want)
			}
		})
	}
}

// TestRunPanicsOnBlockedCPU: a CPU nobody wakes leaves Run with nothing to
// run; Run must say which CPU is stuck rather than return.
func TestRunPanicsOnBlockedCPU(t *testing.T) {
	runBoth(t, 3, func(c *machine.CPU) {
		c.Tick(int64(10 * c.ID))
		if c.ID == 1 {
			c.Await(&fuzzSleep{})
		}
		c.Write(machine.Addr(64+16*c.ID), 1)
	}, func(t *testing.T, _ *machine.Machine, evs []machine.Event, panicked any) {
		msg, _ := panicked.(string)
		if !strings.Contains(msg, "CPU 1 still blocked at run end") {
			t.Errorf("Run panicked with %v, want CPU 1 named as still blocked", panicked)
		}
		if got, want := fmt.Sprint(writers(evs)), "[0 2]"; got != want {
			t.Errorf("writes by CPUs %s, want %s: the other CPUs must still run to the end", got, want)
		}
	})
}
