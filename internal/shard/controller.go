package shard

import (
	"hrwle/internal/obs"
	"hrwle/internal/stats"
)

// sglPath indexes the SGL commit path in TimelineWindow.Commits: the
// fallback commits the controller reads as "speculation gave up".
const sglPath = int(stats.CommitSGL)

// The controller is a promotion of the single-lock adaptive ideas in
// internal/core/adaptive.go to deployment scope: instead of sampling win
// rates inside one lock's write path, it watches each shard's telemetry
// windows and moves the whole shard along the scheme palette.
//
// Three window signals drive the votes:
//
//   - write share (CSWrites/CSEnds, the commit-path mix): decides between
//     the read-optimized rung (RW-LE — uninstrumented reads, expensive
//     quiescing writes) and the symmetric-speculation rung (HLE).
//   - fallback share (SGL-path commits per section): the capacity signal.
//     It votes down exactly when the speculative rung has degenerated
//     into "retry, give up, take the lock anyway" — at that point the
//     plain lock is strictly cheaper. Raw abort pressure deliberately
//     does NOT vote down: at high CPU counts a hot shard can run a
//     visible abort rate whose retries still commit speculatively and
//     out-throughput every lower rung, so aborts alone cannot
//     distinguish "speculation losing" from "speculation winning
//     noisily". Only retries that exhaust their budget are evidence.
//   - abort pressure (aborts per completed section): gates promotion —
//     a shard must be quiet before it climbs toward more speculation.
//
// On the terminal SGL rung aborts are structurally zero, so the
// controller reads lock-wait share: a quiet shard climbs back up
// immediately, and a contended one re-probes the speculative rung on an
// exponential backoff — a contended SGL shard cannot tell "SGL is right"
// from "SGL is the bottleneck" without trying, and a transient storm that
// demoted it must not pin it to the lock forever.
//
// The thresholds below are calibrated on the sharded hashmap store (see
// EXPERIMENTS.md "Sharded scale-out"): roughly, keep RW-LE below ~45%
// writes, keep any speculative rung while under ~35% lock fallbacks, and
// re-probe a contended SGL shard every 8 windows with exponential backoff
// to 64.
const (
	// minOps is the fewest completed sections in a window for the window
	// to cast a vote; sparser windows abstain (no signal, no movement).
	minOps = 12
	// stepUpBelow: pressure below this votes to move one rung *up* (more
	// speculative).
	stepUpBelow = 0.15
	// writeShareDown: on rung 0 (the read-optimized scheme, RW-LE in the
	// standard palette), a write share of completed sections above this
	// votes to step down — RW-LE's uninstrumented read side buys nothing
	// on a write-heavy shard, and its write side (ROT plus reader
	// quiescence) is the palette's most expensive.
	writeShareDown = 0.45
	// writeShareUp: on rung 1, stepping up to rung 0 additionally
	// requires the write share below this (a band under writeShareDown,
	// so the two votes cannot oscillate on a stationary mix).
	writeShareUp = 0.20
	// fallbackShareDown: SGL-path commit share above this, on a
	// speculative rung, votes to step down — the retry budget is being
	// exhausted and the shard is already running on the lock, plus the
	// wasted speculation on the way there.
	fallbackShareDown = 0.35
	// waitPerOpBelow: on the SGL rung, lock-wait cycles per section below
	// this votes to step back up.
	waitPerOpBelow = 150
	// probeWindows: on a *contended* SGL rung, windows to hold before
	// re-probing speculation. A probe restarts the ladder at rung 0 —
	// the descent that parked the shard on SGL may have been a transient
	// storm, and only a full re-evaluation can find the right rung (the
	// rung directly above SGL can be the palette's worst under exactly
	// the conditions that demoted the shard). The interval doubles after
	// every probe that descends again (up to probeBackoffMax) and resets
	// once a probe survives probeWindows clean windows.
	probeWindows = 8
	// probeBackoffMax caps the probe interval growth.
	probeBackoffMax = 64
	// smoothing is the EWMA weight of the newest window in the vote
	// signals (pressure, write share, fallback share), in (0, 1]. 1 means
	// no smoothing. Smoothing keeps single-window spikes — one batch of
	// writes, one abort flurry — from bouncing a shard off a scheme that
	// is right on average.
	smoothing = 0.35
	// hysteresis is the number of *consecutive identical* votes required
	// before a switch is requested.
	hysteresis = 2
	// cooldownWindows suppresses voting for this many windows after a
	// switch request, letting the new scheme's signal stabilize.
	cooldownWindows = 2
)

// ctlShard is one shard's voting state.
type ctlShard struct {
	commanded int // palette rung last requested (not necessarily applied yet)
	votes     int // consecutive identical votes accumulated
	dir       int // direction of the accumulating vote
	cooldown  int // windows to skip before voting again

	sglWins     int // consecutive contended windows spent on the SGL rung
	probeAt     int // current probe interval (0 = not yet initialized)
	cleanStreak int // consecutive clean speculative windows (probe-backoff reset)

	// EWMA state of the speculative-rung vote signals; seeded = false
	// until the first voting window initializes them.
	seeded                bool
	pEWMA, wEWMA, fbkEWMA float64
}

// Controller is the per-shard adaptive policy: it subscribes to each
// shard's timeline, folds every delivered window into a vote, and — after
// hysteresis consecutive identical votes — requests a scheme switch via
// the setPending callback. It runs entirely inside window-delivery
// callbacks, which ShardTimelines invokes in deterministic virtual-time
// order from under the tracer, so its decisions (and therefore the whole
// run) remain a pure function of the seeds.
//
// Rung semantics follow the standard palette order (most speculative
// first): rung 0 is the read-optimized scheme, middle rungs speculate on
// both sides, the last rung is the plain lock.
type Controller struct {
	rungs      int
	setPending func(shard, rung int)
	shards     []ctlShard
}

// NewController builds a controller over `rungs` palette entries for
// `shards` shards, all starting on rung 0. setPending is invoked (from
// inside a window callback, i.e. under the tracer with the emitting CPU
// holding the floor) when a switch is requested.
func NewController(rungs, shards int, setPending func(shard, rung int)) *Controller {
	return &Controller{rungs: rungs, setPending: setPending,
		shards: make([]ctlShard, shards)}
}

// sglRung is the palette index of the non-speculative terminal rung.
func (c *Controller) sglRung() int { return c.rungs - 1 }

// Observe folds one delivered telemetry window for shard s into its vote.
func (c *Controller) Observe(s int, w obs.TimelineWindow) {
	st := &c.shards[s]
	if st.probeAt == 0 {
		st.probeAt = probeWindows
	}
	if st.cooldown > 0 {
		st.cooldown--
		return
	}
	ops := w.CSEnds
	if ops < minOps {
		return // too sparse to read; hold position, keep accumulated votes
	}

	var dir int
	if st.commanded == c.sglRung() {
		// Terminal rung: aborts are structurally zero, read lock-wait.
		wait := float64(w.LockWait) / float64(ops)
		if wait < waitPerOpBelow {
			st.sglWins = 0
			dir = -1
		} else {
			// Contended. Hold, but re-probe speculation on backoff: a
			// transient storm that demoted this shard must not pin it here,
			// and only a probe can tell whether SGL is still the right call.
			// The probe restarts the ladder at rung 0 with fresh signal
			// state; the fallback share walks the shard back down if SGL
			// was right.
			st.votes, st.dir = 0, 0
			st.sglWins++
			if st.sglWins >= st.probeAt {
				st.sglWins = 0
				if st.probeAt < probeBackoffMax {
					st.probeAt *= 2
					if st.probeAt > probeBackoffMax {
						st.probeAt = probeBackoffMax
					}
				}
				st.seeded = false
				c.switchTo(st, s, 0)
			}
			return
		}
	} else {
		var aborts int64
		for _, a := range w.Aborts {
			aborts += a
		}
		var fallbacks int64
		if len(w.Commits) > sglPath {
			fallbacks = w.Commits[sglPath]
		}
		a := smoothing
		if !st.seeded {
			st.seeded = true
			st.pEWMA = float64(aborts) / float64(ops)
			st.fbkEWMA = float64(fallbacks) / float64(ops)
			st.wEWMA = float64(w.CSWrites) / float64(ops)
		} else {
			st.pEWMA += a * (float64(aborts)/float64(ops) - st.pEWMA)
			st.fbkEWMA += a * (float64(fallbacks)/float64(ops) - st.fbkEWMA)
			st.wEWMA += a * (float64(w.CSWrites)/float64(ops) - st.wEWMA)
		}
		pressure, fallbackShare, writeShare := st.pEWMA, st.fbkEWMA, st.wEWMA
		if fallbackShare <= fallbackShareDown {
			st.cleanStreak++
			if st.cleanStreak >= probeWindows {
				st.probeAt = probeWindows // probe survived; reset backoff
			}
		} else {
			st.cleanStreak = 0
		}
		switch {
		case st.commanded == 1 && writeShare < writeShareUp:
			// Rung 1 → rung 0 is mix-driven and outranks every other vote,
			// including a fallback storm: on a read-dominated shard, rung-1
			// conflicts (and the retry exhaustion they cause) live in the
			// instrumented read sets that rung 0 does not even have, so the
			// cure for a drowning rung 1 is *up*, not the lock. Abort
			// pressure is deliberately not consulted either — rung-1 noise
			// says nothing about how rung 0 would fare.
			dir = -1
		case fallbackShare > fallbackShareDown:
			// Retry budgets are being exhausted: the shard already runs on
			// the lock most of the time, plus the wasted speculation.
			dir = +1
		case st.commanded == 0 && writeShare > writeShareDown:
			// The read-optimized rung on a write-heavy shard: its expensive
			// write side dominates even when nothing aborts.
			dir = +1
		case pressure < stepUpBelow && st.commanded > 1:
			dir = -1
		default:
			st.votes, st.dir = 0, 0
			return
		}
	}

	if dir != st.dir {
		st.dir, st.votes = dir, 0
	}
	st.votes++
	if st.votes < hysteresis {
		return
	}
	st.votes, st.dir = 0, 0
	c.switchTo(st, s, st.commanded+dir)
}

// switchTo clamps and requests a rung change for shard s.
func (c *Controller) switchTo(st *ctlShard, s, target int) {
	if target < 0 {
		target = 0
	}
	if target >= c.rungs {
		target = c.rungs - 1
	}
	if target == st.commanded {
		return
	}
	st.commanded = target
	st.cooldown = cooldownWindows
	st.cleanStreak = 0
	st.seeded = false // the new scheme's signals start fresh
	c.setPending(s, target)
}
