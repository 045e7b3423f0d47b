// Package machine is a minimal stub of the simulator's machine package,
// just enough surface for the simlint fixtures to type-check. Its import
// path deliberately matches the real package so the analyzers' path-based
// matching applies.
package machine

type Addr uint64

type CPU struct{ ID int }

func (c *CPU) Intn(n int) int { return 0 }

func (c *CPU) Sync() {}

type Waiter interface {
	Step(c *CPU) bool
}

func (c *CPU) Await(w Waiter) {}

func (c *CPU) Tick(cycles int64) {}

func (c *CPU) Now() int64 { return 0 }

type Machine struct{ mem []uint64 }

func (m *Machine) Run(n int, fn func(*CPU)) int64 { return 0 }

func (m *Machine) Peek(a Addr) uint64 { return m.mem[a] }

func (m *Machine) Poke(a Addr, v uint64) { m.mem[a] = v }

func (m *Machine) AllocRaw(words int) Addr { return 0 }

func (m *Machine) AllocRawAligned(words int) Addr { return 0 }
