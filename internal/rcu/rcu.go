// Package rcu implements Read-Copy-Update over the simulated machine, as a
// comparator for the paper's related-work discussion (§2): RCU and RLU
// "allow both read and write critical sections to execute concurrently...
// Despite being very efficient for read-dominated workloads, both
// techniques require tailored code for each application". RW-LE's pitch is
// getting most of that concurrency *without* modifying the data-structure
// code; this package supplies the tailored-code yardstick (see the
// "ext-rcu" experiment).
//
// The runtime is classic epoch-based RCU: readers bracket their critical
// sections with per-thread clock increments (odd = inside), and a writer's
// Synchronize waits until every reader active at the call has left its
// section. Updaters serialize on a mutex, publish changes with single-word
// pointer stores (atomic in the sequentially consistent simulator, as on
// hardware with release stores), and defer reclamation until after a grace
// period.
package rcu

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

// Domain is one RCU domain: a reader-clock epoch plus the updater mutex.
type Domain struct {
	clocks   htm.Clocks
	updMutex machine.Addr
}

// NewDomain creates an RCU domain covering every CPU of the machine.
func NewDomain(m *machine.Machine) *Domain {
	return &Domain{clocks: htm.NewClocks(m), updMutex: m.AllocRawAligned(1)}
}

// ReadLock enters a read-side critical section (rcu_read_lock).
func (d *Domain) ReadLock(t *htm.Thread) { d.clocks.Enter(t) }

// ReadUnlock leaves the read-side critical section (rcu_read_unlock).
func (d *Domain) ReadUnlock(t *htm.Thread) { d.clocks.Exit(t) }

// Read runs cs as an RCU read-side critical section and accounts it as an
// uninstrumented commit (the fair comparison to RW-LE's readers).
func (d *Domain) Read(t *htm.Thread, cs func()) {
	t.BeginCS(false)
	d.ReadLock(t)
	cs()
	d.ReadUnlock(t)
	t.EndCS(false, stats.CommitUninstrumented, 0)
}

// UpdateLock serializes updaters (RCU's external update-side lock).
func (d *Domain) UpdateLock(t *htm.Thread) {
	t.AwaitAcquire(d.updMutex, htm.Poll(64))
}

// UpdateUnlock releases the update-side lock.
func (d *Domain) UpdateUnlock(t *htm.Thread) { t.Store(d.updMutex, 0) }

// Synchronize waits for a grace period: every reader inside a critical
// section at the time of the call has left it (synchronize_rcu). The grace
// period is one quiescence window.
func (d *Domain) Synchronize(t *htm.Thread) { d.clocks.Drain(t) }
