package service

import (
	"fmt"

	"hrwle/internal/hashmap"
	"hrwle/internal/htm"
	"hrwle/internal/kyoto"
	"hrwle/internal/machine"
	"hrwle/internal/rwlock"
	"hrwle/internal/tpcc"
)

// structure is the Host of the single-structure workloads: one lock of
// the named scheme over a hashmap, Kyoto Cabinet or TPC-C database. A
// request of footprint k performs k operations, each inside its own
// RW-LE-protected critical section; the per-op randomness comes from the
// request's own schedule seed (hashmap) or the serving CPU's stream
// (kyoto, tpcc), so either way the run is a pure function of the seeds.
type structure struct {
	cfg    *Config
	scheme string
	mk     rwlock.Factory
	exec   func(r *Request, c *machine.CPU, th *htm.Thread)
}

// MemWords sizes simulated memory for the configured workload; totalOps
// is the summed footprint of the whole schedule (order headroom for tpcc).
func (s *structure) MemWords(totalOps int64) int64 {
	c := s.cfg
	switch c.Workload {
	case "kyoto":
		return kyoto.DefaultConfig().MemWords()
	case "tpcc":
		return tpcc.DefaultConfig().MemWords(totalOps)
	default:
		universe := hashBuckets * hashItems
		// Line-aligned nodes with churn headroom, per-server spare nodes
		// and lock metadata (the RunHashmap sizing plus spare slack).
		return universe*16*3/2 + hashBuckets + int64(c.Servers)*64 + 1<<15
	}
}

// Build makes the lock, then builds and populates the structure. Kyoto's
// inner slot mutexes follow kyoto.InnerFor, as in Fig. 9.
func (s *structure) Build(m *machine.Machine, sys *htm.System) (machine.Tracer, error) {
	lock := s.mk(sys)
	switch s.cfg.Workload {
	case "hashmap":
		s.exec = newHashExec(s.cfg, m, sys, lock).exec
	case "kyoto":
		pol := kyoto.InnerFor(s.scheme)
		db := kyoto.New(m, kyoto.DefaultConfig())
		db.Populate()
		s.exec = (&stepExec{
			lock:  lock,
			write: &kyoto.Wicked{DB: db, WritePct: 100, Inner: pol},
			read:  &kyoto.Wicked{DB: db, WritePct: 0, Inner: pol},
		}).exec
	case "tpcc":
		db := tpcc.Build(m, tpcc.DefaultConfig())
		s.exec = (&stepExec{
			lock:  lock,
			write: &tpcc.Workload{DB: db, WritePct: 100},
			read:  &tpcc.Workload{DB: db, WritePct: 0},
		}).exec
	default:
		return nil, fmt.Errorf("service: unknown workload %q (hashmap|kyoto|tpcc)", s.cfg.Workload)
	}
	return nil, nil
}

func (s *structure) Exec(r *Request, c *machine.CPU, th *htm.Thread) { s.exec(r, c, th) }

func (s *structure) Finish(int64, []Request) {}

// stepper is the shared shape of the kyoto and tpcc closed-loop drivers;
// the service layer reuses them one Step per operation. The write/read
// split (WritePct 100 vs 0) hands the schedule's IsWrite flag the choice
// the drivers normally draw themselves, so the op mix follows the class
// configuration.
type stepper interface {
	Step(lock rwlock.Lock, t *htm.Thread, c *machine.CPU)
}

type stepExec struct {
	lock        rwlock.Lock
	write, read stepper
}

func (e *stepExec) exec(r *Request, c *machine.CPU, th *htm.Thread) {
	d := e.read
	if r.IsWrite {
		d = e.write
	}
	for i := 0; i < r.Footprint; i++ {
		d.Step(e.lock, th, c)
	}
}

// hashExec serves hashmap requests: one hashmap.Worker per server.
type hashExec struct {
	universe int
	ws       []*hashmap.Worker
}

func newHashExec(cfg *Config, m *machine.Machine, sys *htm.System, lock rwlock.Lock) *hashExec {
	h := hashmap.New(m, hashBuckets)
	h.Populate(hashItems)
	e := &hashExec{universe: int(hashBuckets * hashItems), ws: make([]*hashmap.Worker, cfg.Servers)}
	for i := range e.ws {
		e.ws[i] = h.NewWorker(lock, sys.Thread(i))
	}
	return e
}

func (e *hashExec) exec(r *Request, c *machine.CPU, th *htm.Thread) {
	// Op parameters come from the request's own stream, fixed at schedule
	// time: the work a request performs does not depend on which server
	// picks it up.
	s := machine.NewStream(r.Seed)
	w := e.ws[c.ID]
	for i := 0; i < r.Footprint; i++ {
		key := uint64(s.Intn(e.universe))
		if r.IsWrite {
			// Insert or remove, 50/50, keeping the population in steady
			// state.
			if s.Intn(2) == 0 {
				w.Insert(key)
			} else {
				w.Remove(key)
			}
		} else {
			w.Lookup(key)
		}
		th.St.Ops++
	}
}
