// Package locks is a simlint fixture: its import path places it inside
// the determinism scope, where reading the host clock is forbidden.
package locks

import "time"

var started = time.Now() // want "wall-clock time in a simulator package"

func wallClock() int64 {
	return time.Now().UnixNano() // want "wall-clock time in a simulator package"
}

// twice only does time.Duration arithmetic, which reads no clock.
func twice(d time.Duration) time.Duration { return 2 * d }
