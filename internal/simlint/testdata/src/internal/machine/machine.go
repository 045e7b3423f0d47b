// Package machine is a minimal stub of the simulator's machine package,
// just enough surface for the simlint fixtures to type-check.
package machine

type Addr uint64
