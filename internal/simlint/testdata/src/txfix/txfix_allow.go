package txfix

import "hrwle/internal/htm"

// allowedIncr is the suppression case: a captured increment inside a
// section the author vouches for with a reasoned directive on the
// preceding line.
func allowedIncr(l *RWLock, t *htm.Thread) int {
	n := 0
	l.Read(t, func() {
		//simlint:allow txdiscipline fixture: a diagnostic counter of attempts, re-executions included
		n++
	})
	return n
}
