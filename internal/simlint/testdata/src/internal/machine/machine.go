// Package machine is a minimal stub of the simulator's machine package,
// just enough surface for the simlint fixtures to type-check. Its import
// path deliberately matches the real package so the analyzers' path-based
// matching applies.
package machine

type Addr uint64

type CPU struct{}

type Machine struct{ mem []uint64 }

func (m *Machine) Peek(a Addr) uint64 { return m.mem[a] }

func (m *Machine) Poke(a Addr, v uint64) { m.mem[a] = v }

func (m *Machine) AllocRaw(words int) Addr { return 0 }

func (m *Machine) AllocRawAligned(words int) Addr { return 0 }
