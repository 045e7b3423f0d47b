package shard

import "hrwle/internal/machine"

// queue is a miniature host-side dispatch queue.
type queue struct {
	items []int
	next  int
}

// pop hands out the next item; it never calls Sync itself.
func (q *queue) pop() (int, bool) {
	if q.next >= len(q.items) {
		return 0, false
	}
	q.next++ // want "host state must only change while the CPU holds the virtual-time floor"
	return q.items[q.next-1], true
}

// popWait is an engine-stepped wait for work: its Step runs at the CPU's
// turn, so the pop inside it is covered without a Sync of its own.
type popWait struct {
	q   *queue
	got int
}

func (w *popWait) Step(c *machine.CPU) bool {
	v, ok := w.q.pop()
	w.got = v
	return ok
}

type server struct {
	q      *queue
	served int64
}

// serveAwait is the disciplined waiter loop: Await returns holding the
// floor, so the bookkeeping below it is covered.
func (s *server) serveAwait(c *machine.CPU) {
	w := &popWait{q: s.q}
	for {
		c.Await(w)
		s.served++
		c.Tick(10)
	}
}

// serveHoisted pops above Await: the queue changes before this CPU holds
// the floor.
func (s *server) serveHoisted(c *machine.CPU) {
	w := &popWait{q: s.q}
	for {
		if _, ok := s.q.pop(); !ok {
			return
		}
		c.Await(w)
		s.served++
	}
}

// serveDirect runs the waiter's step itself instead of handing it to
// Await: nothing puts the CPU at its turn first.
func (s *server) serveDirect(c *machine.CPU) {
	w := &popWait{q: s.q}
	for !w.Step(c) { // want "calls waiter step .*popWait.*Step directly"
	}
	c.Sync()
	s.served++
}

// BootWaiters wires the waiter loops to the machine.
func BootWaiters(m *machine.Machine, s *server) {
	m.Run(2, s.serveAwait)
	m.Run(2, s.serveHoisted)
	m.Run(2, s.serveDirect)
}
