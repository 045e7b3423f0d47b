package htm

import (
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// This file is the one account every lock scheme keeps of its critical
// sections. BeginCS and EndCS bracket each outermost section, so its stats
// counters and its span events are set by the same calls and cannot
// disagree; Quiesce brackets each quiescence window the same way.

// BeginCS opens an outermost critical section on the given side: it counts
// the section (St.ReadCS or St.WriteCS) and emits EvCSBegin. Every
// speculative attempt, retry and fallback of the section lies between it
// and the matching EndCS.
func (t *Thread) BeginCS(write bool) {
	if write {
		t.St.WriteCS++
	} else {
		t.St.ReadCS++
	}
	t.C.Emit(machine.EvCSBegin, 0, machine.PackCS(write, 0, 0))
}

// EndCS closes the section BeginCS opened: it counts its commit on path
// and emits EvCSEnd carrying the path and the number of aborted
// speculative attempts, retries.
func (t *Thread) EndCS(write bool, path stats.CommitPath, retries uint64) {
	t.St.Commits[path]++
	t.C.Emit(machine.EvCSEnd, 0, machine.PackCS(write, uint64(path), retries))
}

// Quiesce runs scan as one quiescence window: EvQuiesceStart before it,
// then the waited cycles added to St.QuiesceWait and EvQuiesceEnd after
// it. The window is closed by a defer, so a scan that aborts the enclosing
// speculation (a reader bumping its clock dooms a ROT mid-scan, unwinding
// to Try) loses no waited cycles and leaves the events balanced.
func (t *Thread) Quiesce(scan func()) {
	start := t.C.Now()
	t.C.Emit(machine.EvQuiesceStart, 0, 0)
	defer func() {
		t.St.QuiesceWait += t.C.Now() - start
		t.C.Emit(machine.EvQuiesceEnd, 0, uint64(t.C.Now()-start))
	}()
	scan()
}
