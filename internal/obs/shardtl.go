package obs

import "hrwle/internal/machine"

// ShardTimelines fans one machine's event stream out into per-shard
// Timelines. It decodes each event once and routes the record to the
// shard the CPU is currently working inside. The runner sets that with
// SetShard, a host-side routing table mutated while the CPU holds the
// floor, so it is deterministic like every other host-side structure in
// the service layer. Events from unattributed CPUs advance time but belong
// to no shard.
//
// It also owns the one watermark that drives window delivery: the minimum
// over CPUs of the latest event time seen from each, regardless of shard.
// A per-shard watermark would be wrong, because a CPU that rarely visits a
// shard would hold that shard's windows back forever. Blocked CPUs
// (machine.CPU.Block) are left out: one emits nothing until a running CPU
// wakes it, at a time no earlier than the waker's clock, so it cannot
// emit at or before the watermark the running CPUs set. Counting its
// stale last event would hold windows back for as long as it sleeps.
// Once no CPU can emit another event at or before a window's end, that
// window is final for every shard at once. Windows are delivered
// shard-by-shard in shard order at each watermark advance, so a
// controller subscribed to all shards observes a deterministic total
// order.
type ShardTimelines struct {
	Shards []*Timeline

	cycles *CycleProf // Profile's attribution view; nil for shard runs
	m      *machine.Machine
	dec    decoder
	cur    []int   // per-CPU current shard; -1 = unattributed
	last   []int64 // per-CPU watermark input
	mark   int64   // cached watermark (min over last)
}

// NewShardTimelines builds one Timeline per shard, all sharing the window
// width and per-class sojourn layout.
func NewShardTimelines(windowCycles int64, shards, classes int) *ShardTimelines {
	st := &ShardTimelines{Shards: make([]*Timeline, shards)}
	for i := range st.Shards {
		st.Shards[i] = newTimeline(windowCycles, classes)
	}
	return st
}

// Start fixes the window origin at m's current time for a run of m
// driving `cpus` CPUs. Subscribe to the per-shard timelines before
// calling it.
func (st *ShardTimelines) Start(m *machine.Machine, cpus int) {
	base := m.Now()
	st.m = m
	st.dec = newDecoder(cpus)
	st.mark = base
	st.cur = make([]int, cpus)
	st.last = make([]int64, cpus)
	for i := range st.cur {
		st.cur[i] = -1
		st.last[i] = base
	}
	for _, tl := range st.Shards {
		tl.start(base)
	}
	if st.cycles != nil {
		st.cycles.start(base, cpus)
	}
}

// SetShard routes cpu's subsequent events to shard (-1 detaches). Call
// only from the CPU itself while it holds the floor.
func (st *ShardTimelines) SetShard(cpu, shard int) { st.cur[cpu] = shard }

// Event implements machine.Tracer: decode, accumulate into the current
// shard, advance the watermark, and deliver any windows it finalized.
func (st *ShardTimelines) Event(e machine.Event) {
	r := st.dec.decode(e)
	if r == nil {
		return
	}
	if st.cycles != nil {
		st.cycles.consume(r)
	}
	if s := st.cur[e.CPU]; s >= 0 {
		st.Shards[s].consume(r)
	}
	if e.Time <= st.last[e.CPU] {
		return
	}
	wasMin := st.last[e.CPU] == st.mark
	st.last[e.CPU] = e.Time
	if !wasMin {
		return // the minimum cannot have moved
	}
	mark := e.Time
	for id, t := range st.last {
		if t < mark && !st.m.CPU(id).Blocked() {
			mark = t
		}
	}
	if mark > st.mark {
		st.mark = mark
		for _, tl := range st.Shards {
			tl.advance(mark)
		}
	}
}

// Finish closes every view at the machine's end time, delivering all
// remaining windows (shard order, window order).
func (st *ShardTimelines) Finish(end int64) {
	if st.cycles != nil {
		st.cycles.finish(end, st.dec.cpus)
	}
	for _, tl := range st.Shards {
		tl.finish(end)
	}
}
