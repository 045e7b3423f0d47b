package simsan

import (
	"fmt"
	"io"

	"hrwle/internal/machine"
)

// Access context labels; see the package comment for the semantics.
const (
	CtxPlain     = "plain"     // ordinary non-speculative access
	CtxSuspended = "suspended" // inside a suspend window (non-transactional)
	CtxTx        = "tx"        // transactional access of a committed transaction
	CtxCommit    = "tx-commit" // buffered store published at commit
)

// Access is one side of a race: which CPU touched the word, when, and in
// what speculation context.
type Access struct {
	CPU   int    `json:"cpu"`
	Time  int64  `json:"time"`
	Write bool   `json:"write"`
	Ctx   string `json:"ctx"`
}

func (a Access) String() string {
	op := "read"
	if a.Write {
		op = "write"
	}
	return fmt.Sprintf("CPU %d %s @t=%d (%s)", a.CPU, op, a.Time, a.Ctx)
}

// Race is one detected happens-before violation: two accesses to the same
// data word, at least one a write, with no ordering edge between them.
type Race struct {
	// Kind is "read-after-write", "write-after-write" or "write-after-read"
	// (named by stream order: Prior happened first in the interleaving).
	Kind string       `json:"kind"`
	Addr machine.Addr `json:"addr"`
	// Prior is the earlier access (already in the shadow state), Second the
	// one whose check failed.
	Prior  Access `json:"prior"`
	Second Access `json:"second"`
	// PriorClock is Prior.CPU's logical clock at the prior access;
	// SeenClock is Second.CPU's vector-clock entry for Prior.CPU at the
	// check. PriorClock > SeenClock is the vector-clock evidence that no
	// happens-before edge connects the two accesses.
	PriorClock uint64 `json:"prior_clock"`
	SeenClock  uint64 `json:"seen_clock"`
	// SurfacedAt is the virtual time the race became definitive: the check
	// time for immediate accesses, the commit time when either side was
	// speculative (aborted speculation is discarded, so a speculative
	// verdict is pending until its transaction commits).
	SurfacedAt int64 `json:"surfaced_at"`
}

func (r Race) String() string {
	return fmt.Sprintf("%s at %#x: %s vs %s; epoch %d@%d > view %d, surfaced @t=%d",
		r.Kind, uint64(r.Addr), r.Prior, r.Second,
		r.PriorClock, r.Prior.CPU, r.SeenClock, r.SurfacedAt)
}

// Report is the outcome of analyzing one execution.
type Report struct {
	CPUs   int    `json:"cpus"`
	Events int64  `json:"events"`
	Total  int    `json:"total"` // distinct races found
	Dups   int    `json:"dups"`  // suppressed duplicates (same kind/addr/CPU pair)
	Races  []Race `json:"races"` // first MaxRaces distinct races, stream order
}

// Racy reports whether any race was found.
func (r *Report) Racy() bool { return r.Total > 0 }

// WriteText renders the report deterministically for goldens and CI diffs.
func (r *Report) WriteText(w io.Writer) {
	if !r.Racy() {
		fmt.Fprintf(w, "simsan: no races (%d CPUs, %d events)\n", r.CPUs, r.Events)
		return
	}
	fmt.Fprintf(w, "simsan: %d race(s) (%d duplicate(s) suppressed; %d CPUs, %d events)\n",
		r.Total, r.Dups, r.CPUs, r.Events)
	for i, rc := range r.Races {
		fmt.Fprintf(w, "race %d: %s at %#x\n", i+1, rc.Kind, uint64(rc.Addr))
		fmt.Fprintf(w, "  prior:  %s\n", rc.Prior)
		fmt.Fprintf(w, "  second: %s\n", rc.Second)
		fmt.Fprintf(w, "  clock:  prior epoch %d@%d, observer view of CPU %d = %d, surfaced @t=%d\n",
			rc.PriorClock, rc.Prior.CPU, rc.Prior.CPU, rc.SeenClock, rc.SurfacedAt)
	}
	if r.Total > len(r.Races) {
		fmt.Fprintf(w, "... %d further race(s) dropped (MaxRaces)\n", r.Total-len(r.Races))
	}
}
