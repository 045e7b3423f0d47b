//go:build !linux || !go1.24

package machine

// hugePageBytes is 0: off Linux, and before go1.24's runtime.AddCleanup,
// New takes simulated memory from make.
const hugePageBytes = 0

// mapping is never made here (see mem_linux.go).
type mapping struct{}

// mapMemory returns nil, so New takes simulated memory from make (see
// mem_linux.go).
func mapMemory(m *Machine, n int64) []uint64 { return nil }

// release is never reached: no machine has a mapping here.
func (p *mapping) release(n, memWords, heap int64) {}
