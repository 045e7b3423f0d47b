// Package shard implements the production-shape scale-out deployment of
// ROADMAP item 2: a sharded KV store over the virtual-time machine at
// 64–256 simulated CPUs. Millions of keys are hash-partitioned across
// 4–64 shards, each shard a chained hashmap protected by its own rwlock
// instance. The deployment is a service.Host: the service package's
// open-system runner serves it arrivals drawn with a seeded Zipfian
// hot-key sampler, plus a small fraction of cross-shard multi-key
// transactions executed under ordered two-phase shard acquisition
// (deadlock-free by construction, deterministic like everything else in
// the simulator).
//
// Each shard can run a *different* lock scheme, and can change scheme
// online: the per-shard adaptive controller (controller.go) watches the
// shard's obs.Timeline windows and requests switches, which the
// deployment applies at a safe quiesced boundary — the first instant the
// shard has no critical section in flight and no exclusive (cross-shard)
// holder. Entry to a shard is gated host-side, with the same
// linearization argument as the service queue: every access happens from
// a CPU that has just passed Sync, or inside a Waiter step at that CPU's
// turn (a blocked entrant or reserver polls the gate as an engine-stepped
// gateWait). Either way the CPU holds the global minimum (time, ID), so
// gate state evolves in nondecreasing virtual time and the run is a pure
// function of the seeds at any host worker count.
package shard

import (
	"fmt"

	"hrwle/internal/hashmap"
	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/obs"
	"hrwle/internal/rwlock"
	"hrwle/internal/service"
)

// Scheme pairs a lock-scheme name with its factory. The harness supplies
// these (from its scheme registry) so this package stays decoupled from
// scheme construction. For adaptive runs the palette is ordered from most
// speculative to least — the controller's escalation ladder walks the
// palette by index (RW-LE → HLE → SGL with the default palette).
type Scheme struct {
	Name string
	Mk   rwlock.Factory
}

// itemsPerBucket is the initial chain depth of every shard's buckets (the
// HTM capacity knob), and pollCycles the shard-gate poll interval of a
// blocked CPU.
const (
	itemsPerBucket int64 = 8
	pollCycles     int64 = 40
)

// Config describes one sharded measurement point. The embedded
// service.Config supplies the open-system shape (servers, arrivals,
// classes, queue bound, keyed demand via Keys); the shard fields add the
// partitioning and the controller's window geometry.
type Config struct {
	service.Config

	Shards int   // hash partitions (4–64 in the sweep)
	Window int64 // timeline window width, cycles (controller tick)
}

// DefaultConfig returns the baseline sharded point: 64 serving CPUs over
// 16 shards of a 2M-key store under the read-dominated mix of
// DefaultClasses. The 50k-cycle window gives the controller tens of
// decision ticks even on short calibration runs (6000 requests at the
// default load span ~10.5M cycles).
func DefaultConfig() Config {
	c := Config{
		Config: service.DefaultConfig("shardkv"),
		Shards: 16,
		Window: 50_000,
	}
	c.Servers = 64
	c.Requests = 6000
	c.QueueCap = 2048
	c.Classes = DefaultClasses()
	c.Keys = service.KeyConfig{Universe: 1 << 21, Skew: 0.9, CrossPct: 4}
	return c
}

// DefaultClasses is the sharded-store request mix: a read-dominated KV
// front-end (GET-heavy interactive and standard tiers, a write-heavy
// batch tier). Read-dominance is where the scheme choice is interesting:
// RW-LE's uninstrumented reads win on quiet shards, while the Zipfian
// hot shard — where writers collide — wants HLE's symmetric speculation
// or, past the thrash point, the plain global lock.
func DefaultClasses() []service.Class {
	return []service.Class{
		{Name: "interactive", Share: 40, WritePct: 2,
			Work: service.Pareto(600, 2.5), Footprint: service.Fixed(1)},
		{Name: "standard", Share: 50, WritePct: 10,
			Work: service.Pareto(1200, 2.0), Footprint: service.Bimodal(2, 0.9, 6)},
		{Name: "batch", Share: 10, WritePct: 60,
			Work: service.Pareto(4000, 1.5), Footprint: service.Pareto(4, 1.8)},
	}
}

// Check reports whether Run accepts c: the shard fields' checks, then the
// service's.
func (c Config) Check() error {
	if c.Shards <= 0 {
		return fmt.Errorf("shard: %d shards, want at least 1", c.Shards)
	}
	if c.Window <= 0 {
		return fmt.Errorf("shard: window of %d cycles, want at least 1", c.Window)
	}
	if c.Keys.Universe <= 0 {
		return fmt.Errorf("shard: keyed demand required (Keys.Universe = %d)", c.Keys.Universe)
	}
	if c.Keys.Universe < c.Shards {
		return fmt.Errorf("shard: universe %d smaller than %d shards", c.Keys.Universe, c.Shards)
	}
	return c.Config.Check()
}

// SwitchEvent is one applied scheme switch, in virtual-time order.
type SwitchEvent struct {
	AtCycles int64  `json:"at_cycles"`
	Shard    int    `json:"shard"`
	From     string `json:"from"`
	To       string `json:"to"`
}

// ShardStats summarizes one shard's run.
type ShardStats struct {
	Shard    int    `json:"shard"`
	Ops      int64  `json:"ops"`      // critical sections executed against it
	Writes   int64  `json:"writes"`   // write sections among Ops
	CrossTx  int64  `json:"cross_tx"` // multi-shard transactions it took part in
	Switches int    `json:"switches"` // scheme switches applied
	Final    string `json:"final_scheme"`
}

// Result is one sharded point's outcome.
type Result struct {
	Service  *obs.ServiceMetrics `json:"service"`
	Shards   []ShardStats        `json:"shards"`
	Switches []SwitchEvent       `json:"switches,omitempty"`
	CrossTx  int64               `json:"cross_tx"`
}

// shardState is one shard's host-side gate plus its store. All fields
// below the store handles are mutated only by a CPU that has just passed
// Sync or is inside a gateWait step at its turn (or while it holds the
// floor between Syncs, for pure counters).
type shardState struct {
	h        *hashmap.Map
	universe uint64 // keys populated: [0, universe)
	locks    []rwlock.Lock

	active   int // palette index in force
	pending  int // palette index requested; applied at quiesce
	inflight int // critical sections currently inside
	excl     int // CPU holding/reserving exclusive access; -1 none

	ops, writes, crossTx int64
	switches             int
}

// srv is one serving CPU's hoisted critical-section state (closures
// passed through rwlock.Lock escape; per-op literals would allocate).
type srv struct {
	th   *htm.Thread
	h    *hashmap.Map
	key  uint64
	val  uint64
	node machine.Addr
	used bool

	lookupCS, updateCS func()

	gate gateWait // reused by every gate wait of this CPU
}

// deployment is the sharded store as a service.Host: it builds the
// shards, routes each request to them and feeds the per-shard telemetry
// the controller votes on.
type deployment struct {
	cfg     *Config
	palette []Scheme
	shards  []shardState
	srvs    []srv
	tl      *obs.ShardTimelines
	sw      []SwitchEvent
	perU    uint64 // per-shard key universe
	nshards uint64
}

// mix64 is the splitmix64 finalizer: the key-routing hash. A plain `mod
// shards` would map the Zipf head (ranks 0,1,2,...) onto distinct shards
// in rank order, hiding exactly the hot-shard imbalance the deployment
// exists to study.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// route maps a global key rank to its shard and its key within the
// shard's populated universe.
func (d *deployment) route(rank int) (shard int, inKey uint64) {
	h := mix64(uint64(rank))
	return int(h % d.nshards), (h / d.nshards) % d.perU
}

// MemWords implements service.Host. It sizes simulated memory from the
// store, not the schedule: line-aligned nodes for every key, bucket-head
// arrays, lock metadata per shard per palette entry (BRLock-style schemes
// allocate a line per CPU, so budget generously), spare nodes, and slack.
func (d *deployment) MemWords(int64) int64 {
	c := d.cfg
	keys := int64(c.Keys.Universe)
	buckets := keys/itemsPerBucket + int64(c.Shards)*32
	lockW := int64(c.Shards) * int64(len(d.palette)) * int64(c.Servers+16) * 16
	return keys*16 + buckets + lockW + int64(c.Servers)*32 + 1<<16
}

// Run executes one sharded point. palette must hold at least one scheme;
// with more than one the adaptive controller drives per-shard switching,
// starting every shard on palette[0]. observe, if non-nil, receives the
// machine before the run starts (tracer attachment; the shard timeline
// router is composed with whatever it installs).
func Run(cfg Config, palette []Scheme, observe func(*machine.Machine)) (*Result, error) {
	res, _, _, err := RunObserved(cfg, palette, observe, obs.Attach{})
	return res, err
}

// RunObserved is Run with the observers att selects attached, as
// service.RunHost attaches them; it also returns the served schedule (for
// Chrome counter tracks) and the finished observers. No observer changes
// the Result.
func RunObserved(cfg Config, palette []Scheme, observe func(*machine.Machine), att obs.Attach) (*Result, []service.Request, *obs.Observers, error) {
	if len(palette) == 0 {
		return nil, nil, nil, fmt.Errorf("shard: empty scheme palette")
	}
	if err := cfg.Check(); err != nil {
		return nil, nil, nil, err
	}
	d := &deployment{cfg: &cfg, palette: palette}
	label := palette[0].Name
	if len(palette) > 1 {
		label = "adaptive"
	}
	sm, reqs, o, err := service.RunHost(&cfg.Config, label, d, observe, att)
	if err != nil {
		return nil, nil, nil, err
	}
	res := &Result{Service: sm, Switches: d.sw}
	for i := range d.shards {
		sh := &d.shards[i]
		res.Shards = append(res.Shards, ShardStats{
			Shard: i, Ops: sh.ops, Writes: sh.writes, CrossTx: sh.crossTx,
			Switches: sh.switches, Final: d.palette[sh.active].Name,
		})
		res.CrossTx += sh.crossTx
	}
	res.CrossTx /= 2 // each cross-shard tx was counted by both shards
	return res, reqs, o, nil
}

// Build implements service.Host: it populates every shard's store, makes
// each shard one lock per palette entry, gives every server its spare
// node, and returns the shard timeline router — which drives the
// controller, when there is one — as the late tracer.
func (d *deployment) Build(m *machine.Machine, sys *htm.System) (machine.Tracer, error) {
	cfg := d.cfg
	d.shards = make([]shardState, cfg.Shards)
	d.srvs = make([]srv, cfg.Servers)
	d.nshards = uint64(cfg.Shards)
	buckets := int64(cfg.Keys.Universe/cfg.Shards) / itemsPerBucket
	if buckets < 1 {
		buckets = 1
	}
	// perU is the *populated* per-shard universe. Routing reduces keys
	// modulo it, so every mapped key exists in its shard's store and a
	// write is always an in-place update (never a node-consuming insert).
	d.perU = uint64(buckets * itemsPerBucket)
	for i := range d.shards {
		sh := &d.shards[i]
		sh.h = hashmap.New(m, buckets)
		sh.h.Populate(itemsPerBucket)
		sh.universe = uint64(buckets * itemsPerBucket)
		sh.locks = make([]rwlock.Lock, len(d.palette))
		for j, s := range d.palette {
			sh.locks[j] = s.Mk(sys)
		}
		sh.excl = -1
	}
	for i := range d.srvs {
		v := &d.srvs[i]
		v.th = sys.Thread(i)
		v.node = v.th.AllocAligned(3) // never consumed: the universe is fully populated
		v.lookupCS = func() { v.h.Lookup(v.th, v.key) }
		v.updateCS = func() { v.used = v.h.Insert(v.th, v.key, v.val, v.node) }
	}

	d.tl = obs.NewShardTimelines(cfg.Window, cfg.Shards, len(cfg.Classes))
	if len(d.palette) > 1 {
		ctrl := NewController(len(d.palette), cfg.Shards, func(s, scheme int) {
			d.shards[s].pending = scheme
		})
		for s := range d.shards {
			s := s
			d.tl.Shards[s].Subscribe(func(w obs.TimelineWindow) { ctrl.Observe(s, w) })
		}
	}
	d.tl.Start(m, cfg.Servers)
	return d.tl, nil
}

// Exec implements service.Host: it routes the request by key, runs it
// against the owning shard(s), and feeds the primary shard's timeline
// live. That is safe because the watermark cannot have passed this CPU's
// current instant (see Timeline.AddRequest), and nothing advances the
// clock between here and the server loop's DoneAt stamp.
func (d *deployment) Exec(r *service.Request, c *machine.CPU, th *htm.Thread) {
	primary := d.request(c, th, r)
	d.tl.Shards[primary].AddRequest(r.Class, r.ArriveAt, r.DequeueAt, c.Now(), false)
}

// Finish implements service.Host. Dropped requests never reached a
// server: it attributes them to their primary shard's timeline (served
// ones were fed live), then closes the timelines.
func (d *deployment) Finish(now int64, reqs []service.Request) {
	for i := range reqs {
		r := &reqs[i]
		if r.Dropped {
			s, _ := d.route(r.Key)
			d.tl.Shards[s].AddRequest(r.Class, r.ArriveAt, 0, 0, true)
		}
	}
	d.tl.Finish(now)
}

// request runs one request's structure work and returns its primary
// shard.
func (d *deployment) request(c *machine.CPU, th *htm.Thread, r *service.Request) int {
	s1, in1 := d.route(r.Key)
	if r.Key2 >= 0 {
		if s2, in2 := d.route(r.Key2); s2 != s1 {
			d.execCross(c, th, r, s1, in1, s2, in2)
			return s1
		}
	}
	d.enter(c, s1)
	sh := &d.shards[s1]
	lock := sh.locks[sh.active]
	d.tl.SetShard(c.ID, s1)
	d.ops(c, th, sh, lock, r, in1)
	if r.Key2 >= 0 {
		// Same-shard multi-key write: one extra update, already atomic
		// under the shard's lock discipline.
		_, in2 := d.route(r.Key2)
		d.op(c, th, sh, lock, true, in2, r.Seed)
	}
	d.tl.SetShard(c.ID, -1)
	d.exit(c, s1)
	return s1
}

// ops performs the request's footprint against one shard: the first op on
// the request's own key, the rest on keys drawn from the request's seed
// stream within the same shard (a scan/batch touching the shard locally).
func (d *deployment) ops(c *machine.CPU, th *htm.Thread, sh *shardState, lock rwlock.Lock, r *service.Request, inKey uint64) {
	s := machine.NewStream(r.Seed)
	for i := 0; i < r.Footprint; i++ {
		k := inKey
		if i > 0 {
			k = uint64(s.Intn(int(sh.universe)))
		}
		d.op(c, th, sh, lock, r.IsWrite, k, s.Next())
	}
}

// op executes one critical section against sh under lock.
func (d *deployment) op(c *machine.CPU, th *htm.Thread, sh *shardState, lock rwlock.Lock, write bool, key uint64, val uint64) {
	v := &d.srvs[c.ID]
	v.h, v.key = sh.h, key
	if write {
		v.val = val
		v.used = false
		lock.Write(th, v.updateCS)
		if v.used {
			// The universe is fully populated and nothing is ever removed,
			// so an update can never consume the spare node.
			panic("shard: update consumed the spare node (key outside populated universe)")
		}
		sh.writes++
	} else {
		lock.Read(th, v.lookupCS)
	}
	sh.ops++
	th.St.Ops++
}

// execCross runs a two-shard transaction: exclusive acquisition of both
// shards in ascending index order (ordered two-phase locking — waits
// cannot cycle, so the protocol is deadlock-free), the primary footprint
// against the first key's shard, one update against the second, then
// release in reverse order. While both shards are held exclusively no
// other CPU is inside either, so the pair of updates is atomic with
// respect to every other request.
func (d *deployment) execCross(c *machine.CPU, th *htm.Thread, r *service.Request, s1 int, in1 uint64, s2 int, in2 uint64) {
	lo, hi := s1, s2
	if lo > hi {
		lo, hi = hi, lo
	}
	d.acquireExcl(c, lo)
	d.acquireExcl(c, hi)

	shA := &d.shards[s1]
	d.tl.SetShard(c.ID, s1)
	d.ops(c, th, shA, shA.locks[shA.active], r, in1)

	shB := &d.shards[s2]
	d.tl.SetShard(c.ID, s2)
	d.op(c, th, shB, shB.locks[shB.active], true, in2, r.Seed)
	d.tl.SetShard(c.ID, -1)

	shA.crossTx++
	shB.crossTx++
	d.releaseExcl(c, hi)
	d.releaseExcl(c, lo)
}

// enter admits one critical section into shard s, applying a pending
// scheme switch first if the shard is quiesced. While a switch is pending
// new entrants are held out, so inflight drains and the switch applies at
// the first safe boundary with bounded delay.
func (d *deployment) enter(c *machine.CPU, s int) {
	d.srvs[c.ID].gate = gateWait{d: d, s: s, phase: gateEnter}
	c.Await(&d.srvs[c.ID].gate)
}

// exit retires one critical section from shard s.
func (d *deployment) exit(c *machine.CPU, s int) {
	c.Sync()
	c.MustHoldFloor("inflight")
	d.shards[s].inflight--
}

// acquireExcl reserves shard s exclusively for the calling CPU and waits
// for in-flight sections to drain. The reservation blocks new entrants
// immediately, so the drain is bounded by the sections already inside.
func (d *deployment) acquireExcl(c *machine.CPU, s int) {
	d.srvs[c.ID].gate = gateWait{d: d, s: s, phase: gateReserve}
	c.Await(&d.srvs[c.ID].gate)
}

// Gate-wait phases: entering as a reader of the gate, reserving it
// exclusively, and — reservation held — waiting for the sections already
// inside to drain.
const (
	gateEnter = iota
	gateReserve
	gateDrain
)

// gateWait is a CPU's wait at one shard gate, stepped by the engine so a
// blocked CPU polls with no coroutine switch. Each step is one poll: look
// at the gate at the CPU's turn, then, if still blocked, charge one
// pollCycles interval. The value lives in the CPU's srv and is reused.
type gateWait struct {
	d     *deployment
	s     int
	phase int
}

// Step implements machine.Waiter. As in the dispatch wait, the Sync is
// the scheduling point a controlled scheduler needs and a no-op while
// the engine steps the wait. A reservation ends its step without a poll
// interval, so the first drain check is a scheduling point of its own.
func (w *gateWait) Step(c *machine.CPU) bool {
	c.Sync()
	sh := &w.d.shards[w.s]
	switch {
	case w.phase == gateDrain:
		if sh.inflight == 0 {
			return true
		}
	case sh.excl >= 0:
	case sh.pending != sh.active:
		if sh.inflight == 0 {
			w.d.applySwitch(c, sh, w.s)
		}
	case w.phase == gateEnter:
		sh.inflight++
		return true
	default:
		sh.excl = c.ID
		w.phase = gateDrain
		return false
	}
	c.Tick(pollCycles)
	return false
}

// releaseExcl releases the exclusive hold on shard s.
func (d *deployment) releaseExcl(c *machine.CPU, s int) {
	c.Sync()
	c.MustHoldFloor("excl")
	d.shards[s].excl = -1
}

// applySwitch flips the shard to its pending scheme at a quiesced
// boundary and records the switch in the virtual-time-ordered trace.
func (d *deployment) applySwitch(c *machine.CPU, sh *shardState, s int) {
	from := sh.active
	sh.active = sh.pending
	sh.switches++
	d.sw = append(d.sw, SwitchEvent{
		AtCycles: c.Now(), Shard: s, From: d.palette[from].Name, To: d.palette[sh.active].Name,
	})
}
