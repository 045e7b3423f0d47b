package simsan

import "hrwle/internal/machine"

// accCtx is the speculation context of a shadow access.
type accCtx uint8

const (
	ctxPlain accCtx = iota
	ctxSusp
	ctxTx
	ctxCommit
)

func (c accCtx) label() string {
	switch c {
	case ctxSusp:
		return CtxSuspended
	case ctxTx:
		return CtxTx
	case ctxCommit:
		return CtxCommit
	default:
		return CtxPlain
	}
}

// readEntry is one CPU's last read of a word: its epoch (owner clock at the
// read), time and context. pend marks a read of a still-speculating
// transaction — races against it are buffered on the owner and only
// surfaced if that transaction commits.
type readEntry struct {
	has  bool
	pend bool
	ctx  accCtx
	clk  uint64
	time int64
}

// shadow is the per-word FastTrack shadow state: the last write as an epoch
// and the reads adaptively as a single epoch (rCPU >= 0), nothing (-1), or a
// promoted per-CPU table (-2). Transactional reads always promote so that an
// abort can restore exactly one slot.
type shadow struct {
	wCPU  int
	wClk  uint64
	wTime int64
	wCtx  accCtx
	rCPU  int
	rOne  readEntry
	rMany []readEntry
}

// txWrite is a store buffered by an active transaction (first store per
// word; the value is irrelevant to ordering).
type txWrite struct {
	addr machine.Addr
	time int64
}

// readUndo restores one shadow read slot if the owning transaction aborts.
type readUndo struct {
	sh   *shadow
	prev readEntry
}

// txState is one CPU's speculation state during the happens-before pass.
type txState struct {
	active bool
	susp   bool
	rot    bool
	writes []txWrite
	wseen  map[machine.Addr]bool
	undos  []readUndo
	pend   []Race
	// subs are the sync words this transaction read while active and
	// unsuspended (subscriptions). For a regular transaction those loads
	// are conflict-tracked, so a commit certifies the word never changed:
	// the commit releases into each subscribed word, ordering the atomic
	// block before any later acquirer — this is how lock *elision*
	// synchronizes without ever writing the lock. ROT and suspended loads
	// are untracked and certify nothing, so they are not recorded.
	subs []machine.Addr
	// qjoin accumulates only the edges this transaction acquired through
	// its own quiescence scans (sync-word reads between its EvQuiesceStart
	// and EvQuiesceEnd, suspended or not). Pending read verdicts settle
	// against it at commit: quiescence is the algorithm's reader-drain
	// certification, so a reader it drained is wholly ordered before the
	// publication, and an eager verdict against that reader's mid-section
	// store was merely premature. Ordinary late acquires — a lazily
	// subscribing transaction's lock-word load — do not land here, so they
	// cannot retroactively excuse a verdict; nor can quiescence excuse
	// reading a fallback HOLDER's in-progress write section, because a
	// write section never releases into the reader clocks the scan reads.
	qjoin []uint64
}

func (t *txState) subscribe(a machine.Addr) {
	for _, s := range t.subs {
		if s == a {
			return
		}
	}
	t.subs = append(t.subs, a)
}

type analysis struct {
	n       int
	vcs     [][]uint64                // vcs[c] is CPU c's vector clock
	locks   map[machine.Addr][]uint64 // release clocks of sync words
	shadows map[machine.Addr]*shadow
	sync    map[machine.Addr]bool
	inQ     []bool // inside a quiescence window, per CPU
	txs     []txState
	rep     *Report
	dedup   map[raceKey]bool
	maxKeep int
}

type raceKey struct {
	kind   string
	addr   machine.Addr
	prior  int
	second int
}

// analyze runs both passes over one buffered event stream.
func analyze(opt Options, events []machine.Event) *Report {
	n := opt.CPUs
	a := &analysis{
		n:       n,
		vcs:     make([][]uint64, n),
		locks:   make(map[machine.Addr][]uint64),
		shadows: make(map[machine.Addr]*shadow),
		sync:    classifySync(n, events),
		inQ:     make([]bool, n),
		txs:     make([]txState, n),
		rep:     &Report{CPUs: n, Events: int64(len(events))},
		dedup:   make(map[raceKey]bool),
		maxKeep: opt.MaxRaces,
	}
	for c := range a.vcs {
		a.vcs[c] = make([]uint64, n)
		a.vcs[c][c] = 1 // FastTrack: initial epochs are mutually unordered
	}
	for i := range a.txs {
		a.txs[i].wseen = make(map[machine.Addr]bool)
		a.txs[i].qjoin = make([]uint64, n)
	}
	for _, e := range events {
		if e.CPU < 0 || e.CPU >= n {
			continue
		}
		a.step(e)
	}
	// Transactions still active at stream end never committed: their
	// buffered verdicts stay unsurfaced, like an abort.
	return a.rep
}

// classifySync is pass 1: an address is a synchronization word for the whole
// run if it is ever CAS'd, waited on, or read by a CPU inside its own
// quiescence window. Sync words carry acquire/release edges and are exempt
// from data-race checking.
func classifySync(n int, events []machine.Event) map[machine.Addr]bool {
	sync := make(map[machine.Addr]bool)
	inQ := make([]bool, n)
	for _, e := range events {
		if e.CPU < 0 || e.CPU >= n {
			continue
		}
		switch e.Kind {
		case machine.EvQuiesceStart:
			inQ[e.CPU] = true
		case machine.EvQuiesceEnd:
			inQ[e.CPU] = false
		case machine.EvCAS, machine.EvLockWait:
			sync[e.Addr] = true
		case machine.EvRead:
			if inQ[e.CPU] {
				sync[e.Addr] = true
			}
		}
	}
	return sync
}

func (a *analysis) step(e machine.Event) {
	c := e.CPU
	t := &a.txs[c]
	switch e.Kind {
	case machine.EvTxBegin:
		t.active, t.susp, t.rot = true, false, e.Aux&1 != 0
		t.writes = t.writes[:0]
		clear(t.wseen)
		t.undos = t.undos[:0]
		t.pend = t.pend[:0]
		t.subs = t.subs[:0]
		clear(t.qjoin)
	case machine.EvQuiesceStart:
		a.inQ[c] = true
	case machine.EvQuiesceEnd:
		a.inQ[c] = false
	case machine.EvTxSuspend:
		t.susp = true
	case machine.EvTxResume:
		t.susp = false
	case machine.EvTxAbort:
		a.abortTx(c)
	case machine.EvTxCommit:
		a.commitTx(c, e.Time)
	case machine.EvCAS:
		// CAS is acquire + release on the word, regardless of outcome (a
		// failed CAS still read the line exclusively; treating it as a
		// release over-approximates edges only among lock contenders).
		a.acquire(c, e.Addr)
		a.release(c, e.Addr)
		a.vcs[c][c]++
	case machine.EvFree:
		// Returning a block to the allocator is a release on its base: the
		// free list is internally synchronized, so whoever allocates the
		// block next is ordered after everything the freeing CPU did. The
		// bump keeps the freeing CPU's *later* accesses out of the edge —
		// a use-after-free through a stale pointer must still race.
		a.release(c, e.Addr)
		a.vcs[c][c]++
	case machine.EvAlloc:
		// Allocation acquires the block's free-edge (no-op for first-time
		// allocations) and resets its words' shadow state: the memory is
		// fresh, so accesses from its previous life are dead history, not
		// race candidates.
		a.acquire(c, e.Addr)
		for w := e.Addr; w < e.Addr+machine.Addr(e.Aux); w++ {
			delete(a.shadows, w)
		}
	case machine.EvRead:
		if a.sync[e.Addr] {
			// Acquire: applies immediately even inside a transaction —
			// subscription loads and quiescence scans synchronize at their
			// own virtual time, not at commit.
			a.acquire(c, e.Addr)
			if t.active && a.inQ[c] {
				// A quiescence-scan acquire inside this transaction (the
				// HTM path scans suspended, the ROT path inline): record
				// the drained edge for commit-time verdict settlement.
				if l := a.locks[e.Addr]; l != nil {
					for i, v := range l {
						if v > t.qjoin[i] {
							t.qjoin[i] = v
						}
					}
				}
			}
			if t.active && !t.susp && !t.rot {
				t.subscribe(e.Addr)
			}
			return
		}
		a.dataRead(c, e)
	case machine.EvWrite:
		if a.sync[e.Addr] {
			if t.active && !t.susp {
				// Rare: a buffered store to a sync word releases at commit.
				a.bufferWrite(t, e)
				return
			}
			a.release(c, e.Addr)
			a.vcs[c][c]++
			return
		}
		if t.active && !t.susp {
			a.bufferWrite(t, e)
			return
		}
		ctx := ctxPlain
		if t.active {
			ctx = ctxSusp
		}
		sh := a.shadowOf(e.Addr)
		a.checkWrite(sh, e.Addr, c, e.Time, ctx)
		sh.wCPU, sh.wClk, sh.wTime, sh.wCtx = c, a.vcs[c][c], e.Time, ctx
	}
}

// dataRead handles a read of a data word: race-check against the last
// write, then record the read in the shadow. Transactional reads are
// checked eagerly under the read-time vector clock but publish a pending
// entry (undone on abort) and buffer their verdict until commit.
func (a *analysis) dataRead(c int, e machine.Event) {
	t := &a.txs[c]
	sh := a.shadowOf(e.Addr)
	inTx := t.active && !t.susp
	ctx := ctxPlain
	switch {
	case inTx:
		ctx = ctxTx
	case t.active:
		ctx = ctxSusp
	}
	if sh.wCPU >= 0 && sh.wCPU != c && sh.wCtx != ctxCommit && sh.wClk > a.vcs[c][sh.wCPU] {
		// Reading a committed transactional publication is exempt (atomic
		// aggregate store); any other unordered prior write races.
		r := Race{
			Kind:       "read-after-write",
			Addr:       e.Addr,
			Prior:      Access{CPU: sh.wCPU, Time: sh.wTime, Write: true, Ctx: sh.wCtx.label()},
			Second:     Access{CPU: c, Time: e.Time, Ctx: ctx.label()},
			PriorClock: sh.wClk,
			SeenClock:  a.vcs[c][sh.wCPU],
			SurfacedAt: e.Time,
		}
		if inTx {
			t.pend = append(t.pend, r)
		} else {
			a.addRace(r)
		}
	}
	en := readEntry{has: true, pend: inTx, ctx: ctx, clk: a.vcs[c][c], time: e.Time}
	if inTx {
		a.promote(sh)
		t.undos = append(t.undos, readUndo{sh: sh, prev: sh.rMany[c]})
		sh.rMany[c] = en
		return
	}
	if sh.rCPU == -2 {
		sh.rMany[c] = en
		return
	}
	if sh.rCPU < 0 || sh.rCPU == c || sh.rOne.clk <= a.vcs[c][sh.rCPU] {
		// The previous read epoch is ours or ordered before us: collapse to
		// a single epoch (the FastTrack fast path).
		sh.rOne, sh.rCPU = en, c
		return
	}
	a.promote(sh)
	sh.rMany[c] = en
}

// bufferWrite records a transactional store (first store per word wins; the
// transaction publishes at most one ordering event per word at commit).
func (a *analysis) bufferWrite(t *txState, e machine.Event) {
	if t.wseen[e.Addr] {
		return
	}
	t.wseen[e.Addr] = true
	t.writes = append(t.writes, txWrite{addr: e.Addr, time: e.Time})
}

// checkWrite race-checks a write (immediate or commit-published) against
// the shadow's prior write and reads. Races against a pending transactional
// read are buffered on that reader's transaction.
//
// Accesses of a COMMITTED transaction need no vector-clock edge against a
// later write: the hardware's conflict detection orders them by
// construction. A commit-published store (wCtx == ctxCommit) claimed its
// line while speculating, so any unordered conflicting write before the
// commit would have doomed the transaction — the fact that it committed
// proves every conflicting write in the stream serialized after the atomic
// publication. A tracked transactional read (ctx == ctxTx) is ordered the
// same way: a non-transactional store onto an HTM read set dooms the
// reader (so the verdict-carrying commit never happens and the pending
// entry is discarded), and a ROT that commits serializes *before* any
// writer that overwrote its untracked reads — the writer could not have
// observed the ROT's buffered stores without dooming it. Plain and
// suspended accesses get no such hardware ordering and are always checked;
// the converse directions (a transactional READ of an earlier unordered
// plain write — lazy subscription — and a commit-published WRITE over an
// unordered plain access — torn snapshot) stay checked in dataRead and
// the write-epoch comparison below.
func (a *analysis) checkWrite(sh *shadow, addr machine.Addr, c int, time int64, ctx accCtx) {
	if sh.wCtx == ctxCommit {
		// Prior write is a committed transactional publication: any write
		// observed after it serialized after it (see above). Fall through
		// to the read checks — plain or suspended readers still need an
		// ordering edge.
	} else if sh.wCPU >= 0 && sh.wCPU != c && sh.wClk > a.vcs[c][sh.wCPU] {
		a.addRace(Race{
			Kind:       "write-after-write",
			Addr:       addr,
			Prior:      Access{CPU: sh.wCPU, Time: sh.wTime, Write: true, Ctx: sh.wCtx.label()},
			Second:     Access{CPU: c, Time: time, Write: true, Ctx: ctx.label()},
			PriorClock: sh.wClk,
			SeenClock:  a.vcs[c][sh.wCPU],
			SurfacedAt: time,
		})
	}
	if sh.rCPU >= 0 && sh.rCPU != c && sh.rOne.clk > a.vcs[c][sh.rCPU] &&
		sh.rOne.ctx != ctxTx {
		a.readWriteRace(sh.rCPU, sh.rOne, addr, c, time, ctx)
	}
	if sh.rCPU == -2 {
		for j := range sh.rMany {
			en := sh.rMany[j]
			if j == c || !en.has || en.clk <= a.vcs[c][j] {
				continue
			}
			if en.ctx == ctxTx {
				// Tracked transactional read: ordered by conflict detection
				// whichever way its transaction resolves (see above).
				continue
			}
			a.readWriteRace(j, en, addr, c, time, ctx)
		}
	}
}

// readWriteRace files a write-after-read race. The caller has already
// screened out transactional read entries (checkWrite's conflict-detection
// exemption), so the prior read is plain or suspended — immediate and
// durable, never pending.
func (a *analysis) readWriteRace(j int, en readEntry, addr machine.Addr, c int, time int64, ctx accCtx) {
	a.addRace(Race{
		Kind:       "write-after-read",
		Addr:       addr,
		Prior:      Access{CPU: j, Time: en.time, Ctx: en.ctx.label()},
		Second:     Access{CPU: c, Time: time, Write: true, Ctx: ctx.label()},
		PriorClock: en.clk,
		SeenClock:  a.vcs[c][j],
		SurfacedAt: time,
	})
}

// commitTx publishes a transaction atomically: buffered stores are applied
// under the commit-time vector clock, pending read entries settle, buffered
// race verdicts surface, and the commit acts as a release (clock bump).
func (a *analysis) commitTx(c int, time int64) {
	t := &a.txs[c]
	if !t.active {
		return
	}
	for _, w := range t.writes {
		if a.sync[w.addr] {
			a.release(c, w.addr)
			continue
		}
		sh := a.shadowOf(w.addr)
		a.checkWrite(sh, w.addr, c, time, ctxCommit)
		sh.wCPU, sh.wClk, sh.wTime, sh.wCtx = c, a.vcs[c][c], time, ctxCommit
	}
	for _, u := range t.undos {
		if u.sh.rMany[c].pend {
			u.sh.rMany[c].pend = false
		}
	}
	for i := range t.pend {
		// Settle each eager verdict against the edges this transaction
		// acquired through its own quiescence scans: if quiescence drained
		// the prior accessor past the racy epoch, the protocol ordered that
		// whole reader section before this publication and the verdict was
		// merely premature. A lazy subscription gets no such forgiveness —
		// its late lock-word load is not a quiescence acquire, and the
		// fallback holder's section never releases into the reader clocks
		// a quiescence scan reads.
		if t.qjoin[t.pend[i].Prior.CPU] >= t.pend[i].PriorClock {
			continue
		}
		t.pend[i].SurfacedAt = time
		a.addRace(t.pend[i])
	}
	// Subscription edge: the commit proves every subscribed word stayed
	// unchanged throughout the transaction (a conflicting write would have
	// doomed it), so later acquirers of those words — the next lock holder's
	// CAS — are ordered after this atomic block. The verdicts above were
	// taken eagerly at read time, so a lazy subscription still races even
	// though its late load grants this edge to *later* accesses.
	for _, s := range t.subs {
		a.release(c, s)
	}
	a.vcs[c][c]++
	t.active, t.susp = false, false
}

// abortTx discards a transaction: buffered stores and verdicts vanish and
// eagerly published read entries are rolled back (suspended-window effects,
// which were immediate, survive — as on the hardware).
func (a *analysis) abortTx(c int) {
	t := &a.txs[c]
	if !t.active {
		return
	}
	for i := len(t.undos) - 1; i >= 0; i-- {
		t.undos[i].sh.rMany[c] = t.undos[i].prev
	}
	t.active, t.susp = false, false
}

func (a *analysis) shadowOf(addr machine.Addr) *shadow {
	sh := a.shadows[addr]
	if sh == nil {
		sh = &shadow{wCPU: -1, rCPU: -1}
		a.shadows[addr] = sh
	}
	return sh
}

// promote switches a shadow to the per-CPU read table.
func (a *analysis) promote(sh *shadow) {
	if sh.rCPU == -2 {
		return
	}
	if sh.rMany == nil {
		sh.rMany = make([]readEntry, a.n)
	} else {
		for i := range sh.rMany {
			sh.rMany[i] = readEntry{}
		}
	}
	if sh.rCPU >= 0 {
		sh.rMany[sh.rCPU] = sh.rOne
	}
	sh.rCPU = -2
}

// acquire joins a sync word's release clock into CPU c's vector clock.
func (a *analysis) acquire(c int, addr machine.Addr) {
	l := a.locks[addr]
	if l == nil {
		return
	}
	vc := a.vcs[c]
	for i, v := range l {
		if v > vc[i] {
			vc[i] = v
		}
	}
}

// release joins CPU c's vector clock into a sync word's release clock.
func (a *analysis) release(c int, addr machine.Addr) {
	l := a.locks[addr]
	if l == nil {
		l = make([]uint64, a.n)
		a.locks[addr] = l
	}
	for i, v := range a.vcs[c] {
		if v > l[i] {
			l[i] = v
		}
	}
}

// addRace records a race, deduplicating by (kind, addr, CPU pair) and
// capping retention at MaxRaces.
func (a *analysis) addRace(r Race) {
	k := raceKey{kind: r.Kind, addr: r.Addr, prior: r.Prior.CPU, second: r.Second.CPU}
	if a.dedup[k] {
		a.rep.Dups++
		return
	}
	a.dedup[k] = true
	a.rep.Total++
	if len(a.rep.Races) < a.maxKeep {
		a.rep.Races = append(a.rep.Races, r)
	}
}
