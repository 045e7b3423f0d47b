package obs

import "hrwle/internal/stats"

// TimelineWindow is one fixed-width virtual-time window of run telemetry:
// the live signal the per-shard adaptive controller (internal/shard)
// consumes, plus the open-system queue/latency series filled in after the
// run from the request log. All per-category slices use the legend orders
// published in TimelineReport (stats commit-path and abort-cause order).
type TimelineWindow struct {
	Index       int   `json:"index"`
	StartCycles int64 `json:"start_cycles"` // relative to run base

	// Event-derived series (available live, via Subscribe).
	TxBegins int64        `json:"tx_begins"`
	Commits  []int64      `json:"commits_by_path"`
	Aborts   []int64      `json:"aborts_by_cause"`
	CSEnds   int64        `json:"cs_ends"`
	CSWrites int64        `json:"cs_writes"`              // write-side critical sections completed
	LockWait int64        `json:"lock_wait_cycles"`       // spin/backoff wait cycles ending this window
	Matrix   []MatrixCell `json:"abort_matrix,omitempty"` // killer→victim deltas this window

	// Request-derived series (open-system runs only; filled by AddRequest
	// before Finish, zero/absent in live subscription callbacks).
	Arrivals      int64     `json:"arrivals"`
	Dequeues      int64     `json:"dequeues"`
	Drops         int64     `json:"drops"`
	Dones         int64     `json:"dones"`
	QueueDepthEnd int64     `json:"queue_depth_end"`
	InFlightEnd   int64     `json:"in_flight_end"`
	SojournP99    []float64 `json:"sojourn_p99_cycles,omitempty"` // per class, of requests done this window
}

// tlWin is the mutable per-window accumulator.
type tlWin struct {
	txBegins int64
	commits  [stats.NumCommitPaths]int64
	aborts   [stats.NumAbortCauses]int64
	csEnds   int64
	csWrites int64
	lockWait int64
	matrix   abortMatrix

	arrivals, dequeues, drops, dones int64
	sojourn                          []Samples // per class
}

// Timeline buckets the decoder's records (and, for open-system runs, the
// request log) into fixed-width virtual-time windows. It is fed by a
// ShardTimelines, or by a Profile, which is a one-shard ShardTimelines.
// Like CycleProf it is a pure event consumer: installing it never changes
// virtual time, and the report is deterministic.
//
// Subscribe registers a callback that receives each window as soon as it
// can no longer change — when the owning ShardTimelines' watermark passes
// its end. This is the shape the per-shard adaptive controller needs: a
// bounded-delay live signal, not an end-of-run dump. Subscription
// callbacks see only the event-derived fields; the request-derived series
// exist only after the run finishes.
type Timeline struct {
	window  int64
	base    int64
	end     int64
	classes int

	wins      []*tlWin
	subs      []func(TimelineWindow)
	delivered int // windows already pushed to subscribers
}

// newTimeline returns a timeline with the given window width in cycles
// (values < 1 collapse to one giant window) and per-class sojourn slots
// for `classes` request classes (0 for closed-loop runs).
func newTimeline(windowCycles int64, classes int) *Timeline {
	if windowCycles < 1 {
		windowCycles = 1 << 62
	}
	return &Timeline{window: windowCycles, classes: classes}
}

// Subscribe registers a live window consumer. Must be called before the
// run starts.
func (tl *Timeline) Subscribe(fn func(TimelineWindow)) {
	tl.subs = append(tl.subs, fn)
}

// start fixes the window origin at base.
func (tl *Timeline) start(base int64) {
	tl.base, tl.end = base, base
	tl.wins = tl.wins[:0]
	tl.delivered = 0
}

// win returns the accumulator for the window containing time t.
func (tl *Timeline) win(t int64) *tlWin {
	if t < tl.base {
		t = tl.base
	}
	w := int((t - tl.base) / tl.window)
	for w >= len(tl.wins) {
		tl.wins = append(tl.wins, &tlWin{})
	}
	return tl.wins[w]
}

// consume folds one decoded record into its window.
func (tl *Timeline) consume(r *record) {
	switch r.kind {
	case recTxBegin:
		tl.win(r.t).txBegins++
	case recTxEnd:
		if r.abort {
			w := tl.win(r.t)
			w.aborts[r.cause]++
			w.matrix.add(r)
		}
	case recSpan:
		w := tl.win(r.t)
		w.csEnds++
		if r.write {
			w.csWrites++
		}
		w.commits[r.path]++
	case recLockWait:
		// The wait occupies [t-cycles, t]; attribute it wholly to the
		// window in which it ends (the window split is not worth the cost
		// at controller granularity).
		tl.win(r.t).lockWait += r.cycles
	}
}

// advance delivers every window that ends at or before the watermark
// mark, materializing empty windows up to mark so that quiet periods
// still produce subscription ticks.
func (tl *Timeline) advance(mark int64) {
	if mark > tl.base {
		tl.win(mark - 1)
	}
	tl.deliver(int((mark - tl.base) / tl.window))
}

// deliver pushes windows [delivered, n) to the subscribers, in index
// order, each exactly once.
func (tl *Timeline) deliver(n int) {
	for ; tl.delivered < min(n, len(tl.wins)); tl.delivered++ {
		if len(tl.subs) == 0 {
			continue
		}
		tw := tl.snapshot(tl.delivered)
		for _, fn := range tl.subs {
			fn(tw)
		}
	}
}

// snapshot converts the accumulator of window w into its exported form
// (without the post-run queue-depth prefix sums — Report adds those).
func (tl *Timeline) snapshot(w int) TimelineWindow {
	src := tl.wins[w]
	tw := TimelineWindow{
		Index:       w,
		StartCycles: int64(w) * tl.window,
		TxBegins:    src.txBegins,
		Commits:     make([]int64, stats.NumCommitPaths),
		Aborts:      make([]int64, stats.NumAbortCauses),
		CSEnds:      src.csEnds,
		CSWrites:    src.csWrites,
		LockWait:    src.lockWait,
		Arrivals:    src.arrivals,
		Dequeues:    src.dequeues,
		Drops:       src.drops,
		Dones:       src.dones,
	}
	copy(tw.Commits, src.commits[:])
	copy(tw.Aborts, src.aborts[:])
	if len(src.matrix) > 0 {
		tw.Matrix = src.matrix.cells()
	}
	if len(src.sojourn) > 0 {
		tw.SojournP99 = make([]float64, len(src.sojourn))
		for c := range src.sojourn {
			tw.SojournP99[c] = src.sojourn[c].Quantile(0.99)
		}
	}
	return tw
}

// AddRequest folds one request's lifecycle into the windows: arrival (and
// drop) at arrive, dequeue at dequeue, completion and sojourn sample at
// done. Closed-loop exporters call it after the run; the shard runner
// calls it live at completion time, which is safe because the watermark
// can never have passed a completion instant the completing CPU has just
// reached (delivered windows may undercount *arrivals* that happened
// while the request sat queued — the live signal a subscriber sees is the
// done/sojourn series, and Report recomputes every window from scratch).
func (tl *Timeline) AddRequest(class int, arrive, dequeue, done int64, dropped bool) {
	aw := tl.win(arrive)
	aw.arrivals++
	if dropped {
		aw.drops++
		return
	}
	tl.win(dequeue).dequeues++
	dw := tl.win(done)
	dw.dones++
	if class >= 0 && class < tl.classes {
		if dw.sojourn == nil {
			dw.sojourn = make([]Samples, tl.classes)
		}
		dw.sojourn[class].Add(done - arrive)
	}
}

// finish closes the timeline at the machine's end time, delivering every
// remaining window to the subscribers.
func (tl *Timeline) finish(end int64) {
	tl.end = max(end, tl.base)
	// Make sure the window grid covers the whole run even if the tail was
	// event-free.
	if tl.end > tl.base {
		tl.win(tl.end - 1)
	}
	tl.deliver(len(tl.wins))
}

// TimelineReport is the exportable time series.
type TimelineReport struct {
	WindowCycles int64            `json:"window_cycles"`
	BaseCycles   int64            `json:"base_cycles"`
	EndCycles    int64            `json:"end_cycles"`
	Classes      int              `json:"classes"`
	CommitPaths  []string         `json:"commit_paths"`
	AbortCauses  []string         `json:"abort_causes"`
	Windows      []TimelineWindow `json:"windows"`
}

// Report snapshots the timeline (call after Finish). Queue depth and
// in-flight counts at each window end are prefix sums over the
// request-derived series: depth = arrivals − drops − dequeues so far,
// in-flight = dequeues − dones so far.
func (tl *Timeline) Report() *TimelineReport {
	r := &TimelineReport{
		WindowCycles: tl.window,
		BaseCycles:   tl.base,
		EndCycles:    tl.end,
		Classes:      tl.classes,
		Windows:      make([]TimelineWindow, len(tl.wins)),
	}
	r.CommitPaths = make([]string, stats.NumCommitPaths)
	for i := range r.CommitPaths {
		r.CommitPaths[i] = stats.CommitPath(i).String()
	}
	r.AbortCauses = make([]string, stats.NumAbortCauses)
	for i := range r.AbortCauses {
		r.AbortCauses[i] = stats.AbortCause(i).String()
	}
	var depth, inFlight int64
	for w := range tl.wins {
		tw := tl.snapshot(w)
		depth += tw.Arrivals - tw.Drops - tw.Dequeues
		inFlight += tw.Dequeues - tw.Dones
		tw.QueueDepthEnd = depth
		tw.InFlightEnd = inFlight
		r.Windows[w] = tw
	}
	return r
}
