package obs

import (
	"fmt"
	"io"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// WriteEvents prints events one per line under a header: virtual time,
// CPU, kind, and the kind's payload decoded.
func WriteEvents(w io.Writer, events []machine.Event) {
	fmt.Fprintf(w, "%12s %4s %-14s %s\n", "CYCLE", "CPU", "EVENT", "DETAIL")
	for _, e := range events {
		fmt.Fprintf(w, "%12d %4d %-14s %s\n", e.Time, e.CPU, e.Kind, eventDetail(e))
	}
}

// WriteEventTotals prints the point's event totals in kind order.
func (p *PointMetrics) WriteEventTotals(w io.Writer) {
	fmt.Fprintln(w, "event totals:")
	for k := range machine.NumEventKinds {
		name := machine.EventKind(k).String()
		if n := p.EventTotals[name]; n > 0 {
			fmt.Fprintf(w, "  %-14s %8d\n", name, n)
		}
	}
}

// eventDetail decodes e's Addr and Aux payload for the event dump.
func eventDetail(e machine.Event) string {
	switch e.Kind {
	case machine.EvTxBegin:
		if e.Aux == 1 {
			return "ROT"
		}
		return "HTM"
	case machine.EvTxAbort, machine.EvTxDoom:
		cause, killer := htm.UnpackAbortAux(e.Aux)
		s := "cause=" + cause.String()
		if killer >= 0 {
			s += fmt.Sprintf(" killer=cpu%d addr=%d", killer, e.Addr)
		}
		return s
	case machine.EvTxCommit:
		return fmt.Sprintf("%d dirty words", e.Aux)
	case machine.EvQuiesceEnd:
		return fmt.Sprintf("waited %d cycles", e.Aux)
	case machine.EvCSBegin:
		write, _, _ := machine.UnpackCS(e.Aux)
		return csSide(write)
	case machine.EvCSEnd:
		write, path, retries := machine.UnpackCS(e.Aux)
		return fmt.Sprintf("%s path=%s retries=%d", csSide(write), stats.CommitPath(path), retries)
	case machine.EvPathSwitch:
		return fmt.Sprintf("to=%d", e.Aux)
	case machine.EvRead, machine.EvWrite, machine.EvCAS:
		return fmt.Sprintf("addr=%d val=%d", e.Addr, e.Aux)
	case machine.EvPageFault:
		return fmt.Sprintf("page=%d", e.Aux)
	}
	return ""
}

func csSide(write bool) string {
	if write {
		return "write-side"
	}
	return "read-side"
}
