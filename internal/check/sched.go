package check

import "hrwle/internal/machine"

// schedule is the serializable description of one controlled schedule.
// Exactly one of the two forms is meaningful per Kind.
type schedule struct {
	// Kind is "prefix" (DFS: replay Choices, then default policy) or
	// "walk" (seeded random walk).
	Kind string `json:"kind"`
	// Choices are indices into the ID-sorted runnable set, one per
	// decision point, for the prefix form.
	Choices []int `json:"choices,omitempty"`
	// Seed drives the walk form.
	Seed uint64 `json:"seed,omitempty"`
}

// choicePoint records one consulted decision (only points with ≥2 runnable
// CPUs count — forced moves are not decisions).
type choicePoint struct {
	chosen int // index picked, into the ID-sorted runnable slice
	def    int // index the default min-time policy would pick
	n      int // number of runnable CPUs
}

// ctrl is the controlled scheduler: it replays a choice prefix or follows
// a seeded walk, falling back to the default minimum-virtual-time policy
// beyond the prefix — and unconditionally after maxSteps decisions, so
// hostile schedules cannot livelock spin loops (the default policy always
// makes progress: spinning advances a CPU's clock until the lock holder
// becomes the minimum).
type ctrl struct {
	spec       schedule
	rng        *machine.Stream
	preemptPct int
	maxSteps   int

	preferred int // walk mode: CPU ID currently favored (-1 = none)

	trace     []choicePoint
	truncated bool
}

func newCtrl(cfg Config, spec schedule) *ctrl {
	return &ctrl{
		spec:       spec,
		rng:        machine.NewStream(spec.Seed),
		preemptPct: cfg.WalkPreemptPct,
		maxSteps:   cfg.MaxSteps,
		preferred:  -1,
	}
}

// Pick implements machine.Scheduler.
func (s *ctrl) Pick(current *machine.CPU, runnable []*machine.CPU) *machine.CPU {
	if len(runnable) == 1 {
		return runnable[0]
	}
	def := minTimeIdx(runnable)
	if s.truncated || len(s.trace) >= s.maxSteps {
		s.truncated = true
		return runnable[def]
	}
	ch := def
	switch s.spec.Kind {
	case "prefix":
		if k := len(s.trace); k < len(s.spec.Choices) {
			if c := s.spec.Choices[k]; c >= 0 && c < len(runnable) {
				ch = c
			}
		}
	case "walk":
		// Burst scheduling: favor one CPU for a geometric run of decisions
		// (mean 100/preemptPct), then re-pick uniformly. Long bursts are
		// what drive a writer's whole suspend-quiesce-resume-commit window
		// inside a reader's critical section, and vice versa — uniform
		// per-step coin flips almost never produce them.
		ch = -1
		if s.preferred >= 0 && s.rng.Intn(100) >= s.preemptPct {
			for i, c := range runnable {
				if c.ID == s.preferred {
					ch = i
					break
				}
			}
		}
		if ch < 0 {
			ch = s.rng.Intn(len(runnable))
			s.preferred = runnable[ch].ID
		}
	}
	s.trace = append(s.trace, choicePoint{chosen: ch, def: def, n: len(runnable)})
	return runnable[ch]
}

// minTimeIdx returns the index of the CPU the default policy would run:
// smallest virtual clock, smallest ID tie-break (runnable is ID-sorted, so
// the first minimum wins).
func minTimeIdx(runnable []*machine.CPU) int {
	best := 0
	for i := 1; i < len(runnable); i++ {
		if runnable[i].Now() < runnable[best].Now() {
			best = i
		}
	}
	return best
}
