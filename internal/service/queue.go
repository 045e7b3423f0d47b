package service

import (
	"math/bits"

	"hrwle/internal/machine"
)

// queue is the open-system runner's bounded strict-priority dispatch
// queue, together with the set of servers idle in their dispatch wait.
// It lives in host memory, which is safe because every access
// happens from a CPU that has just passed Sync, or inside a Waiter step
// at that CPU's turn (the server loop's dispatch wait): the engine only
// lets a CPU act when it holds the global minimum (time, ID), so queue
// operations are linearized in nondecreasing virtual time exactly like a
// hardware arbiter would see them. Arrivals are ingested lazily — pop(now) first admits every
// scheduled arrival with ArriveAt <= now, in schedule order, applying the
// capacity bound (an arrival that finds the queue full is dropped, at its
// own arrival time, before later arrivals are considered) — so the queue
// state at any virtual instant is identical to an eager event-driven
// simulation, without needing an arrival-injector CPU.
//
// The idle set is what makes an arrival cost one server step instead of
// one per idle server. Every idle server would wake at the next arrival,
// but only the lowest-ID one can take it: an idle step touches no
// simulated memory and draws no randomness, and ties break by CPU ID. So
// only the lowest-ID idle server stays on the scheduler, sleeping until
// the next arrival; the others are blocked (machine.CPU.Block). When that
// server takes a request or exits, it wakes the next-lowest at its own
// clock, which is where that server's own step would have run.
type queue struct {
	reqs    []Request // the full schedule, in arrival order
	next    int       // first schedule entry not yet ingested
	cap     int
	classes int
	fifo    [8][]int // per-class FIFO of request indices (index 0 = highest priority)
	heads   [8]int   // pop cursor per class; fifo[c][heads[c]:] is the live queue
	queued  int
	dropped int64
	idle    machine.CPUSet // servers waiting in dispatchWait, awake or blocked
}

func newQueue(reqs []Request, capacity, classes, servers int) *queue {
	return &queue{reqs: reqs, cap: capacity, classes: classes, idle: make(machine.CPUSet, (servers+63)/64)}
}

// ingest admits every arrival scheduled at or before now.
func (q *queue) ingest(now int64) {
	for q.next < len(q.reqs) && q.reqs[q.next].ArriveAt <= now {
		i := q.next
		q.next++
		if q.queued >= q.cap {
			q.reqs[i].Dropped = true
			q.dropped++
			continue
		}
		c := q.reqs[i].Class
		q.fifo[c] = append(q.fifo[c], i)
		q.queued++
	}
}

// Pop ingests arrivals up to now and returns the index of the
// highest-priority queued request, or ok=false if the queue is empty at
// this instant.
func (q *queue) Pop(now int64) (idx int, ok bool) {
	q.ingest(now)
	for c := 0; c < q.classes; c++ {
		if q.heads[c] < len(q.fifo[c]) {
			idx = q.fifo[c][q.heads[c]]
			q.heads[c]++
			q.queued--
			return idx, true
		}
	}
	return 0, false
}

// NextArrival returns the arrival time of the earliest not-yet-ingested
// request; ok=false when the schedule is exhausted.
func (q *queue) NextArrival() (t int64, ok bool) {
	if q.next >= len(q.reqs) {
		return 0, false
	}
	return q.reqs[q.next].ArriveAt, true
}

// lowestIdle returns the lowest-ID idle server, or -1 when none is idle.
func (q *queue) lowestIdle() int {
	for i, w := range q.idle {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// leave takes server c out of the idle set as it takes a request or
// exits. If c was the lowest-ID idle server, the one kept awake, it wakes
// the new lowest at its own clock; that server is blocked unless it went
// idle after c last stepped. Any other server leaving has nobody to wake:
// the lowest idle server is never blocked.
func (q *queue) leave(c *machine.CPU) {
	if q.lowestIdle() != c.ID {
		q.idle.Del(c.ID)
		return
	}
	q.idle.Del(c.ID)
	if id := q.lowestIdle(); id >= 0 {
		if b := c.Machine().CPU(id); b.Blocked() {
			c.Wake(b, c.Now())
		}
	}
}
