package check

import (
	"hrwle/internal/machine"
	"hrwle/internal/obs"
)

// TraceHook, when non-nil, supplies a fresh tracer for every controlled
// execution the explorer runs. It exists for the engine differential test
// harness (internal/enginediff), which fingerprints the event stream of
// each explored schedule; production explorations leave it nil.
var TraceHook func() machine.Tracer

// runOne executes the configured program once under the given controlled
// schedule and returns the execution's outcome label (litmus programs only,
// "" otherwise) and the first violated invariant ("" if none).
func runOne(cfg Config, sc *ctrl) (outcome, violation string, points int, truncated bool) {
	m, sys, lock := buildSystem(cfg)
	ctx := &runCtx{cfg: cfg, m: m, sys: sys, lock: lock}
	p := programFor(cfg.Program)
	p.setup(ctx)
	var hook machine.Tracer
	if TraceHook != nil {
		hook = TraceHook()
	}
	o := obs.Attach{Sanitize: cfg.Sanitize}.Install(m, sys, cfg.Threads, 0, hook)
	m.SetScheduler(sc)
	m.Run(cfg.Threads, func(c *machine.CPU) {
		p.body(ctx, sys.Thread(c.ID), c)
	})
	p.check(ctx)
	o.Finish(m.Now())
	if o.Races != nil {
		for _, r := range o.Races.Races {
			ctx.violate("simsan: %s", r)
		}
	}
	if len(ctx.violations) > 0 {
		violation = ctx.violations[0]
	}
	return ctx.outcome, violation, len(sc.trace), sc.truncated
}

// Explore searches cfg's schedule space for an invariant violation. It
// spends half the budget on preemption-bounded exhaustive DFS around the
// default schedule and the rest on seed-swept random walks, stopping at
// the first violation.
func Explore(cfg Config) Report {
	cfg = cfg.withDefaults()
	rep := Report{Config: cfg}

	dfsBudget := cfg.MaxExecutions / 2
	if v := exploreDFS(cfg, dfsBudget, &rep); v != nil {
		rep.Violation = v
		return rep
	}
	for i := 0; rep.Executions < cfg.MaxExecutions; i++ {
		spec := schedule{Kind: "walk", Seed: cfg.Seed + uint64(i)}
		if v := runRecorded(cfg, spec, &rep); v != nil {
			rep.Violation = v
			return rep
		}
	}
	return rep
}

// runRecorded runs one schedule, accounts it in rep, and wraps any
// violation with its replay token.
func runRecorded(cfg Config, spec schedule, rep *Report) *Violation {
	sc := newCtrl(cfg, spec)
	_, desc, points, truncated := runOne(cfg, sc)
	rep.Executions++
	rep.Points += int64(points)
	if truncated {
		rep.Truncated++
	}
	if desc == "" {
		return nil
	}
	return &Violation{Desc: desc, Token: encodeToken(cfg, spec)}
}

// exploreDFS enumerates schedules that deviate from the default
// minimum-virtual-time policy at up to cfg.Preemptions decision points,
// depth-first, last decision point first. The enumeration is the classic
// stateless-model-checking backtracking walk: run one execution, then bump
// the deepest decision that still has an untried alternative within the
// deviation budget, truncating everything after it.
func exploreDFS(cfg Config, budget int, rep *Report) *Violation {
	prefix := []int{}
	for rep.Executions < budget {
		spec := schedule{Kind: "prefix", Choices: prefix}
		sc := newCtrl(cfg, spec)
		_, desc, points, truncated := runOne(cfg, sc)
		rep.Executions++
		rep.Points += int64(points)
		if truncated {
			rep.Truncated++
		}
		if desc != "" {
			return &Violation{Desc: desc, Token: encodeToken(cfg, spec)}
		}
		prefix = nextPrefix(sc.trace, cfg.Preemptions)
		if prefix == nil {
			rep.Exhausted = true
			return nil
		}
	}
	return nil
}

// nextPrefix computes the DFS successor of the schedule recorded in trace:
// the longest prefix whose last choice can be advanced to its next
// alternative without exceeding the deviation bound. It returns nil when
// the bounded schedule space is exhausted.
func nextPrefix(trace []choicePoint, bound int) []int {
	// dev[i] = deviations from the default policy among trace[0:i].
	dev := make([]int, len(trace)+1)
	for i, p := range trace {
		d := 0
		if p.chosen != p.def {
			d = 1
		}
		dev[i+1] = dev[i] + d
	}
	for i := len(trace) - 1; i >= 0; i-- {
		// Every alternative beyond the current choice is a deviation
		// (the ordering is: default first, then the rest ascending).
		if dev[i]+1 > bound {
			continue
		}
		next := nextAlt(trace[i])
		if next < 0 {
			continue
		}
		out := make([]int, i+1)
		for j := 0; j < i; j++ {
			out[j] = trace[j].chosen
		}
		out[i] = next
		return out
	}
	return nil
}

// nextAlt returns the alternative after p.chosen in the per-point ordering
// (default first, then indices ascending, skipping the default), or -1.
func nextAlt(p choicePoint) int {
	start := 0
	if p.chosen != p.def {
		start = p.chosen + 1
	}
	for a := start; a < p.n; a++ {
		if a != p.def {
			return a
		}
	}
	return -1
}
