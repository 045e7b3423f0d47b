// Package service generates open-system traffic inside the deterministic
// simulator: requests arrive by a seeded stochastic process whose clock
// advances with virtual time and is *independent of completions*, wait in
// a bounded strict-priority queue, and are served by the simulated CPUs
// against an RW-LE-protected structure (hashmap, Kyoto Cabinet, TPC-C).
//
// Every closed-loop workload in this repository measures throughput: N
// CPUs spin on a structure and the paper's figures report how long the
// fixed work takes. A production service lives by a different metric —
// sojourn-time percentiles versus offered load — and the closed loop
// structurally cannot produce it, because a closed loop's arrival rate
// adapts to its completion rate (a slow server is offered less load, so
// queueing delay never builds). Here the arrival schedule is drawn up
// front from a dedicated seeded stream (machine.Stream), so when service
// slows down the queue actually grows, queue-wait dominates sojourn, and
// the p99-vs-load curve shows the saturation knee that scheme comparisons
// under service load care about.
//
// Determinism: the schedule is a pure function of (Config, Seed); the run
// is a pure function of the schedule and the machine seed. All randomness
// flows from internal/machine/rng.go streams — the simlint determinism
// analyzer enforces this for the whole package.
package service

import (
	"fmt"
	"math"

	"hrwle/internal/machine"
)

// Process selects the arrival process.
type Process int

const (
	// Poisson arrivals: exponential inter-arrival times at RatePerSec.
	Poisson Process = iota
	// MMPP arrivals: a 2-state Markov-modulated Poisson process — a base
	// state and a burst state whose rate is burstFactor× higher, with
	// exponential state sojourns. Long-run rate equals RatePerSec, so
	// Poisson and MMPP points at the same offered load are comparable;
	// bursts stress the queue's transient behavior.
	MMPP
)

// String names the process in reports and JSON.
func (p Process) String() string {
	switch p {
	case Poisson:
		return "poisson"
	case MMPP:
		return "mmpp"
	}
	return fmt.Sprintf("process(%d)", int(p))
}

// ParseProcess resolves a process name from the CLI.
func ParseProcess(s string) (Process, error) {
	switch s {
	case "poisson":
		return Poisson, nil
	case "mmpp":
		return MMPP, nil
	}
	return 0, fmt.Errorf("unknown arrival process %q (poisson|mmpp)", s)
}

// ArrivalConfig parameterizes the arrival process.
type ArrivalConfig struct {
	Process    Process
	RatePerSec float64 // offered load λ, requests per virtual second
}

// The MMPP shape (ignored by Poisson): the mean burst sojourn is 100k
// cycles, ~28.6 µs at 3.5 GHz.
const (
	burstFactor     = 8       // burst-state rate multiplier over the base state
	burstFrac       = 0.1     // long-run fraction of time spent bursting
	burstMeanCycles = 100_000 // mean burst-state sojourn, cycles
)

// The fixed shape of every point. warmupFrac of the earliest arrivals are
// excluded from the latency quantiles (queue ramp-up from empty biases the
// steady-state tail optimistically); they still count as served/dropped.
// dispatchCycles is charged by a server per dequeue (the queue-op cost a
// real dispatcher would pay). The hashmap workload serves hashBuckets
// buckets of hashItems items each (kyoto and tpcc size themselves).
const (
	warmupFrac           = 0.1
	dispatchCycles int64 = 60
	hashBuckets    int64 = 256
	hashItems      int64 = 12
)

// Class is one priority class of the request mix. Classes are served in
// strict priority order of their index (0 = highest); within a class the
// queue is FIFO.
type Class struct {
	Name     string
	Share    int  // percent of arrivals belonging to this class
	WritePct int  // percent of this class's requests that mutate
	Work     Dist // pre-CS local compute, cycles (request parsing, app logic)
	// Footprint is the structure work per request: the number of
	// operations performed, each inside its own critical section
	// (hashmap ops, kyoto record/database ops, tpcc transactions).
	Footprint Dist
}

// Config describes one open-system measurement point.
type Config struct {
	Workload string // "hashmap" | "kyoto" | "tpcc"
	Servers  int    // simulated CPUs serving the queue
	QueueCap int    // bound on queued requests; arrivals beyond it are dropped
	Requests int    // arrivals to generate (the open-loop schedule length)
	Arrivals ArrivalConfig
	Classes  []Class
	Seed     uint64 // schedule and machine seed, nonzero

	// Keys, when Universe > 0, gives every request a Zipfian primary key
	// (and possibly a secondary key) drawn from a dedicated stream — the
	// keyed-demand extension the sharded deployment routes on. The zero
	// value disables keyed demand and leaves the schedule bytes of every
	// existing workload untouched.
	Keys KeyConfig
}

// KeyConfig parameterizes keyed demand: which key(s) each request touches.
type KeyConfig struct {
	Universe int     // distinct keys; 0 disables keyed demand
	Skew     float64 // Zipf exponent s over key ranks (0 = uniform)
	// CrossPct is the percent of *write* requests that also touch a
	// second, independently drawn key — the multi-key transactions that
	// may span shards. The secondary draw happens for every request
	// regardless (and is discarded when unused), so changing CrossPct
	// never shifts the primary keys of later requests.
	CrossPct int
}

// DefaultClasses returns the standard 3-class service mix: a
// latency-sensitive interactive class, the bulk standard class, and a
// low-priority batch class with a heavy Pareto work tail.
func DefaultClasses() []Class {
	return []Class{
		{Name: "interactive", Share: 30, WritePct: 5,
			Work: Pareto(600, 2.5), Footprint: Fixed(1)},
		{Name: "standard", Share: 60, WritePct: 20,
			Work: Pareto(1200, 2.0), Footprint: Bimodal(2, 0.9, 8)},
		{Name: "batch", Share: 10, WritePct: 50,
			Work: Pareto(4000, 1.5), Footprint: Pareto(6, 1.8)},
	}
}

// DefaultConfig returns the baseline point configuration for a workload,
// with the arrival rate left to the caller (see harness.DefaultServeSpec
// for the calibrated sweep grids). It is the one source of defaults:
// callers change the fields they set, and Check rejects what no run can
// use.
func DefaultConfig(workload string) Config {
	return Config{
		Workload: workload,
		Servers:  8,
		QueueCap: 512,
		Requests: 4000,
		Arrivals: ArrivalConfig{Process: Poisson},
		Classes:  DefaultClasses(),
		Seed:     1,
	}
}

// Check reports whether RunHost accepts c: the checks it applies before
// it builds anything.
func (c Config) Check() error {
	if c.Servers <= 0 || c.Servers > machine.MaxCPUs {
		return fmt.Errorf("service: %d servers, want 1 to machine.MaxCPUs=%d", c.Servers, machine.MaxCPUs)
	}
	if c.QueueCap <= 0 {
		return fmt.Errorf("service: queue bound %d, want at least 1", c.QueueCap)
	}
	if c.Requests <= 0 {
		return fmt.Errorf("service: %d requests, want at least 1", c.Requests)
	}
	if c.Seed == 0 {
		return fmt.Errorf("service: seed 0, want a nonzero seed")
	}
	if err := CheckRate(c.Arrivals.RatePerSec); err != nil {
		return err
	}
	if len(c.Classes) == 0 || len(c.Classes) > 8 {
		return fmt.Errorf("service: %d priority classes, want 1 to 8", len(c.Classes))
	}
	share := 0
	for i := range c.Classes {
		if c.Classes[i].Share <= 0 {
			return fmt.Errorf("service: class %q has non-positive share", c.Classes[i].Name)
		}
		share += c.Classes[i].Share
	}
	if share != 100 {
		return fmt.Errorf("service: class shares sum to %d, want 100", share)
	}
	if c.Keys.Universe > 0 {
		if !(c.Keys.Skew >= 0) || math.IsInf(c.Keys.Skew, 1) {
			return fmt.Errorf("service: key skew %v, want a finite exponent ≥ 0", c.Keys.Skew)
		}
		if c.Keys.CrossPct < 0 || c.Keys.CrossPct > 100 {
			return fmt.Errorf("service: CrossPct %d outside [0,100]", c.Keys.CrossPct)
		}
	}
	return nil
}

// CheckRate reports whether ratePerSec is an offered load the arrival
// processes can schedule: finite and positive, with a mean inter-arrival
// gap of CyclesPerSecond/ratePerSec cycles that fits in an int64.
func CheckRate(ratePerSec float64) error {
	if !(ratePerSec > 0) || math.IsInf(ratePerSec, 1) || machine.CyclesPerSecond/ratePerSec >= math.MaxInt64 {
		return fmt.Errorf("service: arrival rate %v, want a finite rate > 0 whose mean gap fits in int64 cycles", ratePerSec)
	}
	return nil
}

// Request is one generated arrival: the open-loop schedule entry plus the
// fields the run fills in. The schedule fields (ArriveAt through Seed) are
// fixed before machine.Run starts and never depend on service progress —
// that independence is the open-system property, and tests pin it.
type Request struct {
	ArriveAt  int64  // virtual arrival time (cycles from run start)
	Class     int    // priority class index
	IsWrite   bool   // mutating request
	Work      int64  // pre-CS local compute, cycles
	Footprint int    // keys (hashmap) or ops (kyoto/tpcc)
	Seed      uint64 // per-request parameter stream seed
	Key       int    // Zipfian primary key rank; -1 when keyed demand is off
	Key2      int    // secondary key of a multi-key write; -1 if none

	Dropped   bool
	Server    int   // CPU that served it
	DequeueAt int64 // when a server popped it (queue wait = DequeueAt-ArriveAt)
	DoneAt    int64 // completion (sojourn = DoneAt-ArriveAt)
	Path      int8  // dominant stats.CommitPath of its critical sections; -1 = none
}

// scheduleSeed derives the arrival-schedule stream seed from the machine
// seed; the two streams must be distinct so that adding a draw to one
// cannot perturb the other.
func scheduleSeed(seed uint64) uint64 {
	return seed*0x9e3779b97f4a7c15 + 0x5161736b6f6f70 // "Qask oop"
}

// keySeed derives the keyed-demand stream seed. Keys come from their own
// stream (distinct from both the machine and the arrival schedule) so
// turning keyed demand on or changing the key universe cannot shift the
// arrival times, class mix, or demand draws of any request.
func keySeed(seed uint64) uint64 {
	return seed*0x9e3779b97f4a7c15 + 0x6b65797374726d // "keystrm"
}
