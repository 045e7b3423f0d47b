package service

// queue is the open-system runner's bounded strict-priority dispatch
// queue. It lives in host memory, which is safe because every access
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
type queue struct {
	reqs    []Request // the full schedule, in arrival order
	next    int       // first schedule entry not yet ingested
	cap     int
	classes int
	fifo    [8][]int // per-class FIFO of request indices (index 0 = highest priority)
	heads   [8]int   // pop cursor per class; fifo[c][heads[c]:] is the live queue
	queued  int
	dropped int64
}

func newQueue(reqs []Request, capacity, classes int) *queue {
	return &queue{reqs: reqs, cap: capacity, classes: classes}
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
