// Command hrwle-check runs the systematic schedule-exploration checker
// (internal/check) against the synchronization schemes in this repository.
//
// Explore one configuration:
//
//	hrwle-check -scheme RW-LE_OPT -program hashmap -budget 5000
//
// Sweep every scheme × program combination:
//
//	hrwle-check -all
//
// Validate the checker against a seeded bug (must find a violation):
//
//	hrwle-check -scheme RW-LE_PES -mutation skip-rot-quiesce
//
// Race-check a litmus shape with the happens-before sanitizer attached
// (litmus program names are accepted wherever closed programs are):
//
//	hrwle-check -sanitize -program litmus-sub -scheme RW-LE_OPT
//
// Deterministically reproduce a reported violation:
//
//	hrwle-check -replay TOKEN
//
// The process exits 1 when any explored configuration yields a violation
// (or a -replay fails to reproduce one), so it can gate CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hrwle/internal/check"
	"hrwle/internal/cli"
)

func main() {
	var (
		scheme      = flag.String("scheme", "RW-LE_OPT", "scheme to explore: "+strings.Join(check.Schemes(), ", "))
		program     = flag.String("program", "record", "closed test program: "+strings.Join(check.Programs(), ", "))
		threads     = flag.Int("threads", 0, "simulated threads (0 = default)")
		ops         = flag.Int("ops", 0, "critical sections per thread (0 = default)")
		budget      = flag.Int("budget", 0, "total executions to explore (0 = default)")
		preemptions = flag.Int("preemptions", 0, "DFS preemption bound (0 = default)")
		walkPct     = flag.Int("walk-pct", 0, "random-walk preemption probability in percent (0 = default)")
		seed        = flag.Uint64("seed", 0, "base seed for the random-walk sweep (0 = default)")
		mutation    = flag.String("mutation", "", "seeded bug to validate against: "+
			check.MutLoseDoomAtResume+", "+check.MutSkipROTQuiesce+", "+check.MutLazySubscription)
		replay   = flag.String("replay", "", "replay a violation token instead of exploring")
		all      = flag.Bool("all", false, "sweep every scheme × program combination")
		sanitize = flag.Bool("sanitize", false, "attach the simsan happens-before race detector to every explored execution")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(*replay))
	}

	// Validate names up front: buildLock panics on unknown schemes, and a
	// typo'd -mutation would otherwise silently explore unmutated code.
	if !*all && !contains(check.Schemes(), *scheme) {
		cli.Usage(fmt.Errorf("unknown scheme %q (want one of %s)", *scheme, strings.Join(check.Schemes(), ", ")))
	}
	programs := append(check.Programs(), check.LitmusPrograms()...)
	if !contains(programs, *program) {
		cli.Usage(fmt.Errorf("unknown program %q (want one of %s)", *program, strings.Join(programs, ", ")))
	}
	switch *mutation {
	case "", check.MutLoseDoomAtResume, check.MutSkipROTQuiesce, check.MutLazySubscription:
	default:
		cli.Usage(fmt.Errorf("unknown mutation %q (want %s, %s or %s)",
			*mutation, check.MutLoseDoomAtResume, check.MutSkipROTQuiesce, check.MutLazySubscription))
	}

	base := check.Config{
		Scheme:         *scheme,
		Program:        *program,
		Threads:        *threads,
		Ops:            *ops,
		MaxExecutions:  *budget,
		Preemptions:    *preemptions,
		WalkPreemptPct: *walkPct,
		Seed:           *seed,
		Mutation:       *mutation,
		Sanitize:       *sanitize,
	}

	violations := 0
	if *all {
		// The sweep covers the closed invariant programs always; with the
		// sanitizer attached, the litmus shapes join it — their value
		// outcomes are judged by pinned enumerations in the test suite, but
		// their schedules are exactly the reader/writer interactions worth
		// race-checking.
		sweep := check.Programs()
		if *sanitize {
			sweep = programs
		}
		for _, s := range check.Schemes() {
			for _, p := range sweep {
				cfg := base
				cfg.Scheme, cfg.Program = s, p
				if lit := contains(check.LitmusPrograms(), p); lit {
					// Litmus shapes are two fixed threads with one section
					// each; the defaults for closed programs oversubscribe
					// them.
					cfg.Threads, cfg.Ops = 2, 1
				}
				violations += report(check.Explore(cfg))
			}
		}
	} else {
		violations += report(check.Explore(base))
	}
	if violations > 0 {
		os.Exit(1)
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// report prints one exploration summary and returns 1 if it found a
// violation.
func report(rep check.Report) int {
	fmt.Println(rep.String())
	if rep.Violation != nil {
		return 1
	}
	return 0
}

// runReplay re-executes a single violation token and returns the process
// exit code: 0 when the violation reproduces, 1 otherwise.
func runReplay(token string) int {
	rep, err := check.Replay(token)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrwle-check:", err)
		return 1
	}
	fmt.Println(rep.String())
	if rep.Violation == nil {
		fmt.Println("replay: violation did NOT reproduce")
		return 1
	}
	fmt.Println("replay: violation reproduced deterministically")
	return 0
}
