package service

import (
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/rwlock"
	"hrwle/internal/simsan"
	"hrwle/internal/stats"
)

// RunPoint measures one open-system point: it draws the arrival schedule,
// builds the protected structure under the given lock scheme, serves the
// schedule with cfg.Servers simulated CPUs, and returns the latency
// metrics plus the completed schedule (for tests and traces). observe, if
// non-nil, is called with the machine before the run starts (tracer
// attachment).
func RunPoint(cfg Config, scheme string, mk rwlock.Factory, observe func(*machine.Machine)) (*obs.ServiceMetrics, []Request, error) {
	m, reqs, _, err := runPoint(cfg, scheme, mk, observe, nil, false)
	return m, reqs, err
}

// RunPointSanitized is RunPoint with the simsan happens-before race
// detector attached for the serving phase (population is setup, not
// workload). The returned race report is deterministic for a given
// configuration; the metrics and sim_cycles are identical to an
// unsanitized run — the sanitizer only observes the event stream.
func RunPointSanitized(cfg Config, scheme string, mk rwlock.Factory) (*obs.ServiceMetrics, *simsan.Report, error) {
	m, _, rep, err := runPoint(cfg, scheme, mk, nil, nil, true)
	return m, rep, err
}

// RunPointProfiled is RunPoint with a virtual-time profiler attached: prof
// (when non-nil) is installed as an additional tracer right before the run
// — after structure population, so attribution covers exactly the serving
// phase — Started/Finished around it, and fed the completed request log so
// its timeline carries the queue-depth and sojourn series. The profiler is
// a pure event consumer: metrics and sim_cycles are identical with and
// without it.
func RunPointProfiled(cfg Config, scheme string, mk rwlock.Factory, observe func(*machine.Machine), prof *obs.Profile) (*obs.ServiceMetrics, []Request, error) {
	m, reqs, _, err := runPoint(cfg, scheme, mk, observe, prof, false)
	return m, reqs, err
}

func runPoint(cfg Config, scheme string, mk rwlock.Factory, observe func(*machine.Machine), prof *obs.Profile, sanitize bool) (*obs.ServiceMetrics, []Request, *simsan.Report, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, nil, nil, err
	}
	reqs, err := GenerateSchedule(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	totalOps := int64(0)
	for i := range reqs {
		totalOps += int64(reqs[i].Footprint)
	}
	m := machine.New(machine.Config{
		CPUs:     cfg.Servers,
		MemWords: cfg.memWords(totalOps),
		Seed:     cfg.Seed,
	})
	if observe != nil {
		observe(m)
	}
	sys := htm.NewSystem(m, htm.Config{})
	lock := mk(sys)
	ex, err := newExecutor(&cfg, m, sys, lock, scheme)
	if err != nil {
		return nil, nil, nil, err
	}

	q := NewQueue(reqs, cfg.QueueCap, len(cfg.Classes))
	// Late observers attach after structure population so they cover
	// exactly the serving phase.
	var late machine.MultiTracer
	if prof != nil {
		prof.Start(m.Now(), cfg.Servers)
		late = append(late, prof)
	}
	var san *simsan.Sanitizer
	if sanitize {
		san = simsan.New(simsan.Options{CPUs: cfg.Servers})
		sys.SetTraceAccesses(true)
		late = append(late, san)
	}
	if len(late) > 0 {
		if t := m.Tracer(); t != nil {
			m.SetTracer(append(machine.MultiTracer{t}, late...))
		} else {
			m.SetTracer(late)
		}
	}
	cycles := m.Run(cfg.Servers, func(c *machine.CPU) {
		th := sys.Thread(c.ID)
		Serve(c, th, q, cfg.DispatchCycles, func(r *Request) { ex.exec(r, c, th) })
	})
	if prof != nil {
		for i := range q.reqs {
			r := &q.reqs[i]
			prof.Timeline.AddRequest(r.Class, r.ArriveAt, r.DequeueAt, r.DoneAt, r.Dropped)
		}
		prof.Finish(m.Now())
	}
	var sanRep *simsan.Report
	if san != nil {
		sanRep = san.Finish()
	}
	b := stats.Merge(sys.Stats(cfg.Servers), cycles)
	return Assemble(&cfg, scheme, q.reqs, cycles, &b), q.reqs, sanRep, nil
}

// Serve is the open-system server loop shared by every runner: it
// dispatches requests from q to server CPU c until the schedule is
// exhausted and the queue is empty. For each request it stamps the
// dequeue, charges dispatchCycles and the request's pre-section Work,
// hands it to exec for the structure work, and stamps the dominant commit
// path and the completion time.
//
// The wait for work is a machine.Waiter, so a server with nothing to do is
// stepped by the engine — one IdleUntil per arrival it sleeps past — with
// no coroutine switch. Await returns holding the virtual-time floor, so
// the request bookkeeping below it is covered exactly as after a Sync.
func Serve(c *machine.CPU, th *htm.Thread, q *Queue, dispatchCycles int64, exec func(*Request)) {
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
		exec(r)
		r.Path = DominantPath(before, th.St.Commits)
		r.DoneAt = c.Now()
	}
}

// dispatchWait is a server's wait for work. Each step, at the CPU's turn,
// either pops the highest-priority queued request (idx >= 0), or idles
// the CPU until the next scheduled arrival, or — the schedule exhausted
// and the queue empty — ends the wait with idx = -1.
type dispatchWait struct {
	q   *Queue
	idx int
}

// Step implements machine.Waiter. The Sync is a no-op while the engine
// steps the wait; under a controlled scheduler, where Await runs the
// steps on the CPU's own stack, it is the scheduling point the queue
// access needs.
func (w *dispatchWait) Step(c *machine.CPU) bool {
	c.Sync()
	if idx, ok := w.q.Pop(c.Now()); ok {
		w.idx = idx
		return true
	}
	t, more := w.q.NextArrival()
	if !more {
		w.idx = -1
		return true
	}
	c.IdleUntil(t)
	return false
}

// DominantPath returns the commit path most of the request's critical
// sections took (ties break toward the smaller path index, i.e. the more
// speculative path); -1 when no critical section committed a path delta.
func DominantPath(before, after [stats.NumCommitPaths]int64) int8 {
	best, bestN := -1, int64(0)
	for i := 0; i < stats.NumCommitPaths; i++ {
		if d := after[i] - before[i]; d > bestN {
			best, bestN = i, d
		}
	}
	return int8(best)
}

// Assemble folds the completed schedule into a ServiceMetrics. Quantiles
// cover measured requests: served, past the warmup prefix of the arrival
// order.
func Assemble(cfg *Config, scheme string, reqs []Request, cycles int64, b *stats.Breakdown) *obs.ServiceMetrics {
	warmup := int(cfg.WarmupFrac * float64(len(reqs)))
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
