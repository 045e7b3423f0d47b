package service

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/rwlock"
	"hrwle/internal/stats"
)

// Host is the structure an open-system point serves; RunHost does the
// rest. MemWords sizes simulated memory (totalOps is the schedule's summed
// footprint). Build allocates and populates the structure; a non-nil late
// tracer it returns is chained after observe's, so, like the profiler and
// the sanitizer behind it, it covers exactly the serving phase. Exec runs
// one request's structure work on server CPU c after the dispatch wait's
// Await, holding the virtual-time floor as after a Sync. Finish is called
// once after the run with the final virtual time and the served schedule.
type Host interface {
	MemWords(totalOps int64) int64
	Build(m *machine.Machine, sys *htm.System) (late machine.Tracer, err error)
	Exec(r *Request, c *machine.CPU, th *htm.Thread)
	Finish(now int64, reqs []Request)
}

// RunPoint measures one open-system point: it draws the arrival schedule,
// builds the protected structure under the given lock scheme, serves the
// schedule with cfg.Servers simulated CPUs, and returns the latency
// metrics plus the completed schedule (for tests and traces). observe, if
// non-nil, is called with the machine before the run starts (tracer
// attachment).
func RunPoint(cfg Config, scheme string, mk rwlock.Factory, observe func(*machine.Machine)) (*obs.ServiceMetrics, []Request, error) {
	m, reqs, _, err := RunPointObserved(cfg, scheme, mk, observe, obs.Attach{})
	return m, reqs, err
}

// RunPointObserved is RunPoint with the serving-phase observers att
// selects attached; it returns them finished.
func RunPointObserved(cfg Config, scheme string, mk rwlock.Factory, observe func(*machine.Machine), att obs.Attach) (*obs.ServiceMetrics, []Request, *obs.Observers, error) {
	return RunHost(&cfg, scheme, &structure{cfg: &cfg, scheme: scheme, mk: mk}, observe, att)
}

// RunHost is the one open-system runner: it measures one point of h under
// cfg and labels the metrics with scheme. The machine is released when
// RunHost returns or panics, so its memory goes to the next point; observe
// and h may keep it only for its host-side state. cfg is checked before h is
// asked for anything. The tracer chain is observe's tracer, h's late tracer, then the
// observers att selects, which it returns finished; the profiler's
// timeline is fed the request log, so it carries the queue-depth and
// sojourn series. No observer changes the run: metrics and sim_cycles
// stay the same.
func RunHost(cfg *Config, scheme string, h Host, observe func(*machine.Machine), att obs.Attach) (*obs.ServiceMetrics, []Request, *obs.Observers, error) {
	if err := cfg.Check(); err != nil {
		return nil, nil, nil, err
	}
	reqs, err := GenerateSchedule(*cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	totalOps := int64(0)
	for i := range reqs {
		totalOps += int64(reqs[i].Footprint)
	}
	m := machine.New(machine.Config{
		CPUs:     cfg.Servers,
		MemWords: h.MemWords(totalOps),
		Seed:     cfg.Seed,
	})
	defer m.Release()
	if observe != nil {
		observe(m)
	}
	sys := htm.NewSystem(m, htm.Config{})
	late, err := h.Build(m, sys)
	if err != nil {
		return nil, nil, nil, err
	}

	q := newQueue(reqs, cfg.QueueCap, len(cfg.Classes), cfg.Servers)
	o := att.Install(m, sys, cfg.Servers, len(cfg.Classes), late)
	cycles := m.Run(cfg.Servers, func(c *machine.CPU) {
		serve(c, sys.Thread(c.ID), q, h)
	})
	h.Finish(m.Now(), reqs)
	if o.Profile != nil {
		for i := range reqs {
			r := &reqs[i]
			o.Profile.Timeline.AddRequest(r.Class, r.ArriveAt, r.DequeueAt, r.DoneAt, r.Dropped)
		}
	}
	o.Finish(m.Now())
	b := stats.Merge(sys.Stats(cfg.Servers), cycles)
	return assemble(cfg, scheme, reqs, cycles, &b), reqs, o, nil
}

// serve is the open-system server loop: it dispatches requests from q to
// server CPU c until the schedule is exhausted and the queue is empty. For
// each request it stamps the dequeue, charges dispatchCycles and the
// request's pre-section Work, hands it to h for the structure work, and
// stamps the dominant commit path and the completion time.
//
// The wait for work is a machine.Waiter, so a server with nothing to do
// costs no coroutine switch: the lowest-ID idle server is stepped by the
// engine, one IdleUntil per arrival it sleeps past, and every other idle
// server is blocked until a wake (see queue). Await returns holding the
// virtual-time floor, so the request bookkeeping below it is covered
// exactly as after a Sync.
func serve(c *machine.CPU, th *htm.Thread, q *queue, h Host) {
	w := &dispatchWait{q: q}
	for {
		c.Await(w)
		if w.idx < 0 {
			// Schedule exhausted and queue empty: arrivals are the only
			// source of work, so this server is done.
			return
		}
		r := &q.reqs[w.idx]
		r.Server = c.ID
		r.DequeueAt = c.Now()
		c.Tick(dispatchCycles)
		c.Tick(r.Work) // pre-CS local compute (parse, app logic)
		before := th.St.Commits
		h.Exec(r, c, th)
		r.Path = dominantPath(before, th.St.Commits)
		r.DoneAt = c.Now()
	}
}

// dispatchWait is a server's wait for work. Each step, at the CPU's turn,
// either pops the highest-priority queued request (idx >= 0), or idles
// the CPU until the next scheduled arrival, or — the schedule exhausted
// and the queue empty — ends the wait with idx = -1. An idling server
// joins the queue's idle set and, unless it is the lowest-ID member,
// blocks. A server that pops or exits leaves the set; if it was the
// lowest-ID member, it wakes the next.
type dispatchWait struct {
	q   *queue
	idx int
}

// Step implements machine.Waiter. The Sync is a no-op while the engine
// steps the wait; under a controlled scheduler, where Await runs the
// steps on the CPU's own stack, it is the scheduling point the queue
// access needs. The Block comes before the IdleUntil so that the idle set
// changes at that same scheduling point on both paths (IdleUntil's Sync
// is a second one under a controlled scheduler); the CPU leaves the heap
// only when the step returns.
func (w *dispatchWait) Step(c *machine.CPU) bool {
	c.Sync()
	if idx, ok := w.q.Pop(c.Now()); ok {
		w.idx = idx
		w.q.leave(c)
		return true
	}
	t, more := w.q.NextArrival()
	if !more {
		w.idx = -1
		w.q.leave(c)
		return true
	}
	w.q.idle.Add(c.ID)
	if w.q.lowestIdle() != c.ID {
		c.Block()
	}
	c.IdleUntil(t)
	return false
}

// dominantPath returns the commit path most of the request's critical
// sections took (ties break toward the smaller path index, i.e. the more
// speculative path); -1 when no critical section committed a path delta.
func dominantPath(before, after [stats.NumCommitPaths]int64) int8 {
	best, bestN := -1, int64(0)
	for i := 0; i < stats.NumCommitPaths; i++ {
		if d := after[i] - before[i]; d > bestN {
			best, bestN = i, d
		}
	}
	return int8(best)
}

// assemble folds the completed schedule into a ServiceMetrics. Quantiles
// cover measured requests: served, past the warmup prefix of the arrival
// order.
func assemble(cfg *Config, scheme string, reqs []Request, cycles int64, b *stats.Breakdown) *obs.ServiceMetrics {
	warmup := int(warmupFrac * float64(len(reqs)))
	out := &obs.ServiceMetrics{
		Workload:       cfg.Workload,
		Scheme:         scheme,
		Servers:        cfg.Servers,
		QueueCap:       cfg.QueueCap,
		Process:        cfg.Arrivals.Process.String(),
		OfferedPerSec:  cfg.Arrivals.RatePerSec,
		Requests:       int64(len(reqs)),
		MakespanCycles: cycles,
		Breakdown:      obs.NewBreakdown(b),
	}
	if n := len(reqs); n > 0 {
		out.LastArrivalCycles = reqs[n-1].ArriveAt
	}
	type classAcc struct {
		arrivals, served, dropped int64
		wait, svc, sojourn        obs.Samples
		byPath                    [stats.NumCommitPaths]obs.Samples
	}
	accs := make([]classAcc, len(cfg.Classes))
	for i := range reqs {
		r := &reqs[i]
		a := &accs[r.Class]
		a.arrivals++
		if r.Dropped {
			a.dropped++
			out.Dropped++
			continue
		}
		a.served++
		out.Served++
		if i < warmup {
			continue
		}
		a.wait.Add(r.DequeueAt - r.ArriveAt)
		a.svc.Add(r.DoneAt - r.DequeueAt)
		a.sojourn.Add(r.DoneAt - r.ArriveAt)
		if r.Path >= 0 {
			a.byPath[r.Path].Add(r.DoneAt - r.ArriveAt)
		}
	}
	if s := machine.Seconds(cycles); s > 0 {
		out.AchievedPerSec = float64(out.Served) / s
	}
	for ci := range accs {
		a := &accs[ci]
		cm := obs.ClassServiceMetrics{
			Class:     cfg.Classes[ci].Name,
			Priority:  ci,
			Arrivals:  a.arrivals,
			Served:    a.served,
			Dropped:   a.dropped,
			Measured:  a.sojourn.Count(),
			QueueWait: a.wait.JSON(),
			Service:   a.svc.JSON(),
			Sojourn:   a.sojourn.JSON(),
		}
		for p := 0; p < stats.NumCommitPaths; p++ {
			if a.byPath[p].Count() > 0 {
				cm.ByPath = append(cm.ByPath, obs.PathSojourn{
					Path:    stats.CommitPath(p).String(),
					Served:  a.byPath[p].Count(),
					Sojourn: a.byPath[p].JSON(),
				})
			}
		}
		out.Classes = append(out.Classes, cm)
	}
	return out
}
