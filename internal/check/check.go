// Package check is a systematic concurrency checker for the
// synchronization schemes in this repository. It drives the deterministic
// machine simulator with a *controlled* scheduler (machine.Scheduler)
// instead of the default minimum-virtual-time policy, enumerating thread
// interleavings of small closed programs and checking every explored
// execution against a sequential reference model plus the RW-LE-specific
// invariants:
//
//   - aggregate-store atomicity of ROT and HTM commits (a reader never
//     observes a partially published write set);
//   - no lost dooms across suspend/resume (a reader arriving during a
//     writer's quiescence loop must kill the suspended speculation —
//     paper §3, Fig. 2);
//   - linearizability of the guarded data structure against a sequential
//     reference, witnessed by a per-lock sequence number.
//
// Two exploration strategies share one schedule representation:
// preemption-bounded exhaustive DFS for tiny configurations, and
// seed-swept random walks for larger ones. Any violating execution is
// summarized as a replay token — a self-contained string that
// deterministically reproduces the exact interleaving (see Replay).
package check

import (
	"fmt"

	"hrwle/internal/harness"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
)

// Mutations the checker validates itself against: each re-introduces a
// known-dangerous simplification behind a test-only knob, and the explorer
// must find a violation within the default budget.
const (
	// MutLoseDoomAtResume forgets conflicts recorded while a transaction
	// was suspended (htm.Config.UnsafeLoseDoomAtResume).
	MutLoseDoomAtResume = "lose-doom-at-resume"
	// MutSkipROTQuiesce drops the quiescence barrier on RW-LE's ROT path
	// (htm.Config.UnsafeSkipROTQuiesce).
	MutSkipROTQuiesce = "skip-rot-quiesce"
	// MutLazySubscription reads the lock word only after RW-LE's HTM
	// critical section body ran (htm.Config.UnsafeLazySubscription). Its
	// unsafety is invisible to value-based oracles — the torn observation
	// commits values a legal serialization could also produce — so this
	// mutation is validated by the simsan race sanitizer (Config.Sanitize),
	// not by the invariant oracles.
	MutLazySubscription = "lazy-subscription"
)

// Config selects what to explore and how hard.
type Config struct {
	// Scheme is a name from Schemes() (default RW-LE_OPT).
	Scheme string
	// Program is "record" or "hashmap" (default record).
	Program string
	// Threads is the number of simulated threads (default 3).
	Threads int
	// Ops is the number of critical sections per thread (default 2).
	Ops int
	// Preemptions bounds how far exhaustive DFS may deviate from the
	// default schedule in one execution (default 2).
	Preemptions int
	// MaxExecutions is the total exploration budget across both
	// strategies (default 1500).
	MaxExecutions int
	// WalkPreemptPct is the per-decision probability (%) that a random
	// walk deviates from the default choice (default 30).
	WalkPreemptPct int
	// MaxSteps truncates pathological schedules: after this many decision
	// points one execution falls back to the default policy so it always
	// terminates (default 40000).
	MaxSteps int
	// Mutation optionally enables one of the checker-validation knobs
	// (MutLoseDoomAtResume, MutSkipROTQuiesce, MutLazySubscription).
	Mutation string
	// Seed is the base seed of the random-walk sweep (default 1).
	Seed uint64
	// Sanitize runs the simsan happens-before race detector over every
	// explored execution; a detected race is reported as a violation. The
	// sanitizer observes passively (no virtual time, no extra scheduling
	// points), so the explored schedule space is identical either way.
	// Omitted from violation tokens when off so pre-sanitizer tokens (and
	// golden captures embedding them) keep their exact encoding.
	Sanitize bool `json:",omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Scheme == "" {
		c.Scheme = "RW-LE_OPT"
	}
	if c.Program == "" {
		c.Program = "record"
	}
	if c.Threads <= 0 {
		c.Threads = 3
	}
	if c.Ops <= 0 {
		c.Ops = 2
	}
	if c.Preemptions <= 0 {
		c.Preemptions = 2
	}
	if c.MaxExecutions <= 0 {
		c.MaxExecutions = 1500
	}
	if c.WalkPreemptPct <= 0 {
		c.WalkPreemptPct = 30
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 40000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Schemes returns the scheme names the checker explores by default.
func Schemes() []string {
	return []string{"RW-LE_OPT", "RW-LE_PES", "RW-LE_FAIR", "RW-LE_SPLIT", "HLE", "BRLock"}
}

// Programs returns the closed test programs the checker knows.
func Programs() []string { return []string{"record", "hashmap"} }

// Violation describes one failing execution.
type Violation struct {
	// Desc is a human-readable statement of the broken invariant.
	Desc string
	// Token deterministically replays the violating execution (Replay).
	Token string
}

// Report summarizes one exploration.
type Report struct {
	Config     Config
	Executions int   // executions actually run
	Points     int64 // decision points across all executions
	Truncated  int   // executions that hit MaxSteps and drained
	Exhausted  bool  // DFS enumerated the whole bounded schedule space
	Violation  *Violation
}

func (r Report) String() string {
	s := fmt.Sprintf("%s/%s threads=%d ops=%d: %d executions, %d decision points",
		r.Config.Scheme, r.Config.Program, r.Config.Threads, r.Config.Ops, r.Executions, r.Points)
	if r.Exhausted {
		s += " (schedule space exhausted)"
	}
	if r.Violation != nil {
		s += "\n  VIOLATION: " + r.Violation.Desc + "\n  replay: " + r.Violation.Token
	}
	return s
}

// buildSystem constructs a fresh machine, HTM system and lock instance for
// one execution of cfg. Memory is small and paging is off: the checker
// cares about interleavings, not timing. The mutation knobs all live in
// htm.Config, so the lock comes from the harness scheme table unchanged.
func buildSystem(cfg Config) (*machine.Machine, *htm.System, rwlock.Lock) {
	m := machine.New(machine.Config{CPUs: cfg.Threads, MemWords: 1 << 12, Seed: 1})
	sys := htm.NewSystem(m, htm.Config{
		UnsafeLoseDoomAtResume: cfg.Mutation == MutLoseDoomAtResume,
		UnsafeSkipROTQuiesce:   cfg.Mutation == MutSkipROTQuiesce,
		UnsafeLazySubscription: cfg.Mutation == MutLazySubscription,
	})
	return m, sys, harness.SchemeFactory(cfg.Scheme)(sys)
}
