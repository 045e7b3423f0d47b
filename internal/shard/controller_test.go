package shard

import (
	"testing"

	"hrwle/internal/obs"
	"hrwle/internal/stats"
)

// ctlRig drives a Controller over the standard three-rung palette (RW-LE,
// HLE, SGL) for one shard and records the rung it last requested.
type ctlRig struct {
	c        *Controller
	rung     int
	switches int
}

func newCtlRig() *ctlRig {
	r := &ctlRig{}
	r.c = NewController(3, 1, func(_, rung int) { r.rung, r.switches = rung, r.switches+1 })
	return r
}

// feed observes w up to n times and returns how many windows it took to
// request a switch (1-based), or 0 if none of the n did.
func (r *ctlRig) feed(w obs.TimelineWindow, n int) int {
	for i := 1; i <= n; i++ {
		before := r.switches
		r.c.Observe(0, w)
		if r.switches != before {
			return i
		}
	}
	return 0
}

// ctlWindow builds a synthetic telemetry window of ops completed sections,
// writes of them write sections, fallbacks of them committed on the SGL
// path, and lockWait cycles of lock waits.
func ctlWindow(ops, writes, fallbacks, lockWait int64) obs.TimelineWindow {
	w := obs.TimelineWindow{
		CSEnds: ops, CSWrites: writes, LockWait: lockWait,
		Commits: make([]int64, stats.NumCommitPaths),
		Aborts:  make([]int64, stats.NumAbortCauses),
	}
	w.Commits[sglPath] = fallbacks
	return w
}

// TestControllerVotes checks the controller's voting rules on synthetic
// windows, one rule per subtest.
func TestControllerVotes(t *testing.T) {
	writeHeavy := ctlWindow(100, 60, 0, 0) // rung 0 votes down: write share 0.6
	clean := ctlWindow(100, 10, 0, 0)      // rung 0 holds: few writes, no fallbacks
	storm := ctlWindow(100, 30, 100, 0)    // a speculative rung votes down: fallback share 1
	contended := ctlWindow(100, 10, 0, 100_000)

	// toSGL walks r down to the SGL rung on fallback storms.
	toSGL := func(t *testing.T, r *ctlRig) {
		t.Helper()
		for i := 0; r.rung != 2; i++ {
			if i == 20 {
				t.Fatalf("fallback storms left the shard on rung %d", r.rung)
			}
			r.feed(storm, 1)
		}
	}

	t.Run("hysteresis", func(t *testing.T) {
		r := newCtlRig()
		if got := r.feed(writeHeavy, 1); got != 0 {
			t.Fatal("one vote switched")
		}
		if got := r.feed(writeHeavy, 1); got != 1 || r.rung != 1 {
			t.Fatalf("second consecutive vote: switch after %d windows to rung %d, want after 1 to rung 1", got, r.rung)
		}
		// A window that casts no vote breaks the streak.
		r = newCtlRig()
		if r.feed(writeHeavy, 1)+r.feed(clean, 1)+r.feed(writeHeavy, 1) != 0 {
			t.Fatal("votes around a non-voting window switched")
		}
		if got := r.feed(writeHeavy, 1); got != 1 {
			t.Fatal("two consecutive votes after a broken streak did not switch")
		}
	})

	t.Run("cooldown", func(t *testing.T) {
		r := newCtlRig()
		r.feed(writeHeavy, 2)
		if got := r.feed(storm, 2); got != 0 {
			t.Fatalf("switched %d windows after a switch, inside the 2-window cooldown", got)
		}
		if got := r.feed(storm, 2); got != 2 || r.rung != 2 {
			t.Fatalf("after the cooldown: switch after %d windows to rung %d, want after 2 to rung 2", got, r.rung)
		}
	})

	t.Run("abstain", func(t *testing.T) {
		sparse := ctlWindow(11, 11, 0, 0)
		r := newCtlRig()
		if got := r.feed(sparse, 50); got != 0 {
			t.Fatal("windows of 11 sections voted")
		}
		// An abstaining window keeps the streak it interrupts.
		if r.feed(writeHeavy, 1)+r.feed(sparse, 3) != 0 {
			t.Fatal("one vote and abstentions switched")
		}
		if got := r.feed(writeHeavy, 1); got != 1 {
			t.Fatal("abstentions broke the vote streak")
		}
		r = newCtlRig()
		if got := r.feed(ctlWindow(12, 12, 0, 0), 2); got != 2 {
			t.Fatal("windows of 12 sections did not vote")
		}
	})

	t.Run("probe-backoff", func(t *testing.T) {
		r := newCtlRig()
		// Each probe comes after the 2 cooldown windows of the switch to
		// SGL and then the probe interval of contended windows.
		for i, interval := range []int{8, 16, 32, 64, 64} {
			toSGL(t, r)
			if got := r.feed(contended, 200); got != 2+interval || r.rung != 0 {
				t.Fatalf("probe %d: switch to rung %d after %d contended windows, want rung 0 after %d",
					i, r.rung, got, 2+interval)
			}
		}
		// A probe that survives 8 clean windows resets the interval.
		if got := r.feed(clean, 2+8); got != 0 {
			t.Fatal("clean windows on rung 0 switched")
		}
		toSGL(t, r)
		if got := r.feed(contended, 200); got != 2+8 {
			t.Fatalf("after a surviving probe: probe after %d contended windows, want %d", got, 2+8)
		}
	})
}
