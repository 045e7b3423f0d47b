package machine_test

import (
	"fmt"
	"testing"

	"hrwle/internal/harness"
	"hrwle/internal/machine"
)

// TestReleaseAcrossSweepWorkers builds and releases machines of three
// sizes, mapped where the host gives huge pages, from four harness.ForEach
// workers at once, as a parallel sweep does. Every machine's allocated
// memory must read zero before the point dirties it, whichever worker
// released the mapping it got; under -race the spare's handover must
// show no data race.
func TestReleaseAcrossSweepWorkers(t *testing.T) {
	sizes := []int64{1 << 18, 3 << 18, 1 << 19} // 2, 6 and 4 MiB of words
	err := harness.ForEach(24, 4, func(i int) error {
		m := machine.New(machine.Config{CPUs: 2, MemWords: sizes[i%len(sizes)], Seed: uint64(i + 1)})
		defer m.Release()
		n := m.Cfg.MemWords / 2
		a := m.AllocRaw(n)
		for w := a; w < a+machine.Addr(n); w += 61 {
			if v := m.Peek(w); v != 0 {
				return fmt.Errorf("point %d: word %d of a new machine reads %#x", i, w, v)
			}
			m.Poke(w, uint64(i)<<32|uint64(w))
		}
		m.Run(2, func(c *machine.CPU) {
			for w := a + machine.Addr(c.ID); w < a+machine.Addr(n); w += 4099 {
				c.Write(w, uint64(c.ID+1))
			}
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
