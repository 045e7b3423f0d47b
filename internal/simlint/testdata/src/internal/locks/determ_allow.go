package locks

import "time"

// allowedWallClock shows the escape hatch: the function-level directive
// below suppresses the wall-clock diagnostic for the whole body, with a
// mandatory reason.
//
//simlint:allow determinism fixture: progress logging is presentation-only and never feeds simulated results
func allowedWallClock() int64 {
	return time.Now().UnixNano()
}

//simlint:allow-file txdiscipline fixture: demonstrates the whole-file form for an analyzer this package never trips
