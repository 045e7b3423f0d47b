package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"hrwle/internal/htm"
	"hrwle/internal/machine"
	"hrwle/internal/stats"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 4, -5} {
		h.Add(v)
	}
	if h.Count != 6 || h.Sum != 10 || h.Max != 4 {
		t.Errorf("count=%d sum=%d max=%d", h.Count, h.Sum, h.Max)
	}
	j := h.JSON()
	want := []HistBucket{
		{LoCycles: 0, Count: 2}, // 0 and the clamped -5
		{LoCycles: 1, Count: 1},
		{LoCycles: 2, Count: 2}, // 2 and 3
		{LoCycles: 4, Count: 1},
	}
	if len(j.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", j.Buckets)
	}
	for i, b := range j.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, b, want[i])
		}
	}
	if got := h.Mean(); got != 10.0/6 {
		t.Errorf("mean = %v", got)
	}
}

// syntheticFeed drives one fixed event sequence into a collector: a write
// span on CPU 0 (doomed once, quiesced 50 cycles, finally ROT), a read span
// on CPU 1, and a CSEnd on CPU 2 whose begin predates the trace.
func syntheticFeed(c *Collector) {
	aux := htm.PackAbortAux(stats.AbortROTConflict, 1)
	c.Event(machine.Event{Kind: machine.EvCSBegin, Time: 100, CPU: 0, Aux: machine.PackCS(true, 0, 0)})
	c.Event(machine.Event{Kind: machine.EvTxDoom, Time: 150, CPU: 0, Addr: 64, Aux: aux})
	c.Event(machine.Event{Kind: machine.EvTxAbort, Time: 160, CPU: 0, Addr: 64, Aux: aux})
	c.Event(machine.Event{Kind: machine.EvQuiesceEnd, Time: 300, CPU: 0, Aux: 50})
	c.Event(machine.Event{Kind: machine.EvCSEnd, Time: 400, CPU: 0,
		Aux: machine.PackCS(true, uint64(stats.CommitROT), 1)})
	c.Event(machine.Event{Kind: machine.EvCSBegin, Time: 0, CPU: 1, Aux: machine.PackCS(false, 0, 0)})
	c.Event(machine.Event{Kind: machine.EvCSEnd, Time: 10, CPU: 1,
		Aux: machine.PackCS(false, uint64(stats.CommitUninstrumented), 0)})
	c.Event(machine.Event{Kind: machine.EvCSEnd, Time: 500, CPU: 2,
		Aux: machine.PackCS(true, uint64(stats.CommitSGL), 3)})
}

func TestCollectorSpansMatrixAndHotAddrs(t *testing.T) {
	c := NewCollector()
	syntheticFeed(c)

	cells := c.Matrix()
	if len(cells) != 1 {
		t.Fatalf("matrix = %+v", cells)
	}
	cell := cells[0]
	if cell.Cause != "ROT conflicts" || cell.Killer != 1 || cell.Victim != 0 || cell.Count != 1 {
		t.Errorf("cell = %+v", cell)
	}

	hot := c.HotAddrs(HotAddrLimit)
	if len(hot) != 1 || hot[0].Addr != 64 || hot[0].Count != 1 {
		t.Errorf("hot addrs = %+v", hot)
	}

	// The partial span on CPU 2 must be dropped: exactly two spans survive,
	// read-side listed before write-side.
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	rd, wr := spans[0], spans[1]
	if rd.Side != "read" || rd.Path != "Uninstrumented" || rd.Count != 1 || rd.Latency.SumCycles != 10 {
		t.Errorf("read span = %+v", rd)
	}
	if wr.Side != "write" || wr.Path != "ROT" || wr.Count != 1 || wr.Retries != 1 ||
		wr.QuiesceCycles != 50 || wr.Latency.SumCycles != 300 {
		t.Errorf("write span = %+v", wr)
	}

	q := c.QuiesceHist()
	if q.Count != 1 || q.SumCycles != 50 {
		t.Errorf("quiesce hist = %+v", q)
	}
}

func TestHotAddrOrderingAndLimit(t *testing.T) {
	c := NewCollector()
	feed := func(addr machine.Addr, n int) {
		for i := 0; i < n; i++ {
			c.Event(machine.Event{Kind: machine.EvTxDoom, Addr: addr,
				Aux: htm.PackAbortAux(stats.AbortConflictTx, 0)})
		}
	}
	feed(96, 2)
	feed(32, 5)
	feed(64, 2) // ties with 96 on count; lower address must win
	feed(0, 9)  // addr 0 = no address; must not be ranked

	hot := c.HotAddrs(2)
	if len(hot) != 2 || hot[0] != (AddrConflicts{Addr: 32, Count: 5}) ||
		hot[1] != (AddrConflicts{Addr: 64, Count: 2}) {
		t.Errorf("hot addrs = %+v", hot)
	}
}

func TestPointJSONDeterministicAndValid(t *testing.T) {
	render := func() []byte {
		c := NewCollector()
		syntheticFeed(c)
		b := &stats.Breakdown{Threads: 3, Cycles: 500, TxStarts: 2, QuiesceWait: 50}
		b.Aborts[stats.AbortROTConflict] = 1
		b.Commits[stats.CommitROT] = 1
		rm := &RunMetrics{Figure: "test", Scheme: "RW-LE_PES",
			Points: []*PointMetrics{c.Point(3, 20, 500, b)}}
		data, err := json.Marshal(rm)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("identical feeds produced different JSON")
	}
	var decoded RunMetrics
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.Scheme != "RW-LE_PES" || len(decoded.Points) != 1 {
		t.Errorf("round trip lost data: %+v", decoded)
	}
	if decoded.Points[0].Breakdown.QuiesceWait != 50 {
		t.Error("breakdown quiesce_wait_cycles not exported")
	}
}

func TestWriteMatrixAndHistsRender(t *testing.T) {
	c := NewCollector()
	syntheticFeed(c)
	p := c.Point(3, 20, 500, nil)
	var buf bytes.Buffer
	p.WriteMatrix(&buf)
	out := buf.String()
	for _, want := range []string{"ROT conflicts", "addr=64"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("matrix output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	p.WriteHists(&buf)
	for _, want := range []string{"read/Uninstrumented", "write/ROT", "quiescence windows"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("hist output missing %q:\n%s", want, buf.String())
		}
	}

	// An empty point must render gracefully, not panic or divide by zero.
	empty := NewCollector().Point(1, 0, 0, nil)
	buf.Reset()
	empty.WriteMatrix(&buf)
	empty.WriteHists(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("no aborts recorded")) {
		t.Error("empty matrix not reported")
	}
}

func TestWriteChromeTraceValidAndBalanced(t *testing.T) {
	events := []machine.Event{
		{Kind: machine.EvCSBegin, Time: 100, CPU: 0, Aux: machine.PackCS(true, 0, 0)},
		{Kind: machine.EvTxBegin, Time: 110, CPU: 0, Aux: 1},
		{Kind: machine.EvTxDoom, Time: 150, CPU: 0, Addr: 64,
			Aux: htm.PackAbortAux(stats.AbortROTConflict, 1)},
		{Kind: machine.EvTxAbort, Time: 160, CPU: 0, Addr: 64,
			Aux: htm.PackAbortAux(stats.AbortROTConflict, 1)},
		{Kind: machine.EvTxBegin, Time: 170, CPU: 0, Aux: 1},
		{Kind: machine.EvQuiesceStart, Time: 180, CPU: 0},
		{Kind: machine.EvQuiesceEnd, Time: 230, CPU: 0, Aux: 50},
		{Kind: machine.EvTxCommit, Time: 240, CPU: 0, Aux: 2},
		{Kind: machine.EvCSEnd, Time: 250, CPU: 0, Aux: machine.PackCS(true, uint64(stats.CommitROT), 1)},
		{Kind: machine.EvRead, Time: 105, CPU: 1, Addr: 8}, // must be skipped
		{Kind: machine.EvPathSwitch, Time: 165, CPU: 0, Aux: 1},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	begins, ends := 0, 0
	for _, e := range out.TraceEvents {
		switch e["ph"] {
		case "B":
			begins++
		case "E":
			ends++
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("unbalanced slices: %d begins, %d ends\n%s", begins, ends, buf.String())
	}
	if begins != 4 { // cs, 2×tx, quiesce
		t.Errorf("begins = %d, want 4", begins)
	}
	if len(out.TraceEvents) != 10 { // all input events minus the EvRead
		t.Errorf("records = %d, want 10 (memory accesses must be skipped)", len(out.TraceEvents))
	}
}

// TestTimelineMultipleSubscribers pins the fan-out contract of
// Timeline.Subscribe: every subscriber sees every window exactly once, in
// index order, with identical contents, and no window is delivered before
// the watermark — the minimum last-seen event time across CPUs — has
// passed its end.
func TestTimelineMultipleSubscribers(t *testing.T) {
	const window, cpus, nsubs = 100, 2, 3
	prof := NewProfile(window, 0)
	tl := prof.Timeline

	// fed[c] mirrors the event feed below: the last time fed to CPU c so
	// far. The delivery callback uses it to check the watermark rule.
	fed := [cpus]int64{}
	finishing := false // Finish force-delivers the tail; exempt from the watermark rule
	got := make([][]TimelineWindow, nsubs)
	for i := 0; i < nsubs; i++ {
		i := i
		tl.Subscribe(func(w TimelineWindow) {
			mark := fed[0]
			if fed[1] < mark {
				mark = fed[1]
			}
			if end := w.StartCycles + window; !finishing && end > mark {
				t.Errorf("subscriber %d: window %d (end %d) delivered at watermark %d", i, w.Index, end, mark)
			}
			if n := len(got[i]); n > 0 && got[i][n-1].Index+1 != w.Index {
				t.Errorf("subscriber %d: window %d after %d (out of order or duplicated)", i, w.Index, got[i][n-1].Index)
			}
			got[i] = append(got[i], w)
		})
	}
	prof.Start(machine.New(machine.Config{CPUs: cpus, MemWords: 64}), cpus)

	emit := func(cpu int, at int64, kind machine.EventKind, aux uint64) {
		fed[cpu] = at
		prof.Event(machine.Event{Kind: kind, CPU: cpu, Time: at, Aux: aux})
	}
	// CPU 0 races ahead through window 2; windows 0 and 1 stay undelivered
	// until CPU 1's stream passes their ends.
	emit(0, 5, machine.EvCSBegin, machine.PackCS(true, 0, 0))
	emit(0, 10, machine.EvTxBegin, 0)
	emit(0, 80, machine.EvCSEnd, machine.PackCS(true, uint64(stats.CommitHTM), 1))
	emit(0, 250, machine.EvTxBegin, 0)
	if len(got[0]) != 0 {
		t.Fatalf("window delivered while CPU 1 was silent (watermark at base): %+v", got[0])
	}
	emit(1, 90, machine.EvCSBegin, machine.PackCS(false, 0, 0))
	if len(got[0]) != 0 {
		t.Fatalf("CPU 1 at 90 released a window: %+v", got[0])
	}
	emit(1, 120, machine.EvCSEnd, machine.PackCS(false, uint64(stats.CommitUninstrumented), 0))
	if len(got[0]) != 1 {
		t.Fatalf("CPU 1 at 120 should release exactly window 0, got %d windows", len(got[0]))
	}
	emit(1, 260, machine.EvTxBegin, 0)
	if len(got[0]) != 2 {
		t.Fatalf("both CPUs past 200 should release window 1, got %d windows", len(got[0]))
	}
	finishing = true
	prof.Finish(300)

	rep := tl.Report()
	if len(rep.Windows) != 3 {
		t.Fatalf("report has %d windows, want 3", len(rep.Windows))
	}
	for i := 0; i < nsubs; i++ {
		if len(got[i]) != len(rep.Windows) {
			t.Fatalf("subscriber %d saw %d windows, report has %d", i, len(got[i]), len(rep.Windows))
		}
	}
	// Every subscriber saw the identical stream, equal to the report's
	// event-derived series.
	for i := 1; i < nsubs; i++ {
		if !reflect.DeepEqual(got[0], got[i]) {
			t.Errorf("subscribers 0 and %d diverged:\n%+v\nvs\n%+v", i, got[0], got[i])
		}
	}
	for w, lw := range got[0] {
		fw := rep.Windows[w]
		if lw.TxBegins != fw.TxBegins || lw.CSEnds != fw.CSEnds || lw.CSWrites != fw.CSWrites ||
			!reflect.DeepEqual(lw.Commits, fw.Commits) || !reflect.DeepEqual(lw.Aborts, fw.Aborts) {
			t.Errorf("window %d: live series differs from final report: %+v vs %+v", w, lw, fw)
		}
	}
	// Spot-check the routed contents.
	if got[0][0].TxBegins != 1 || got[0][0].CSEnds != 1 || got[0][0].CSWrites != 1 {
		t.Errorf("window 0 = %+v, want 1 begin / 1 end / 1 write", got[0][0])
	}
	if got[0][1].CSEnds != 1 || got[0][1].CSWrites != 0 {
		t.Errorf("window 1 = %+v, want the CPU-1 read section", got[0][1])
	}
}

// TestDecoderEdgePolicy states the one policy every consumer applies to a
// malformed critical-section stream: a CSEnd with no open CSBegin, or
// with a commit path outside stats.NumCommitPaths, closes nothing and
// counts nowhere, so its cycles stay with the open section (application
// work when none is open); a repeated CSBegin restarts the span.
func TestDecoderEdgePolicy(t *testing.T) {
	begin := func(at int64) machine.Event {
		return machine.Event{Kind: machine.EvCSBegin, Time: at, Aux: machine.PackCS(true, 0, 0)}
	}
	end := func(at int64, path stats.CommitPath) machine.Event {
		return machine.Event{Kind: machine.EvCSEnd, Time: at, Aux: machine.PackCS(true, uint64(path), 0)}
	}
	const bad = stats.CommitPath(stats.NumCommitPaths)
	for _, tc := range []struct {
		name    string
		feed    []machine.Event
		spans   int64              // Collector spans = Timeline cs_ends = Σ commits_by_path
		latency int64              // summed Collector span latency
		cycles  map[CycleCat]int64 // CycleProf attribution of [0, 200)
	}{
		{"orphan end", []machine.Event{end(100, stats.CommitSGL)}, 0, 0,
			map[CycleCat]int64{CatApp: 100, CatIdle: 100}},
		{"out-of-range path", []machine.Event{begin(0), end(100, bad)}, 0, 0,
			map[CycleCat]int64{CatApp: 200}},
		{"out-of-range path, then a valid end", []machine.Event{begin(0), end(100, bad), end(150, stats.CommitSGL)}, 1, 150,
			map[CycleCat]int64{CatFallback: 150, CatIdle: 50}},
		{"restarted begin", []machine.Event{begin(0), begin(50), end(100, stats.CommitHTM)}, 1, 50,
			map[CycleCat]int64{CatUseful: 100, CatIdle: 100}},
	} {
		c := NewCollector()
		prof := NewProfile(0, 0)
		prof.Start(machine.New(machine.Config{CPUs: 1, MemWords: 64}), 1)
		for _, e := range tc.feed {
			c.Event(e)
			prof.Event(e)
		}
		prof.Finish(200)
		rep := prof.Report("", "")

		var spans, latency, csEnds, commits int64
		for _, s := range c.Spans() {
			spans += s.Count
			latency += s.Latency.SumCycles
		}
		for _, w := range rep.Timeline.Windows {
			csEnds += w.CSEnds
			for _, n := range w.Commits {
				commits += n
			}
		}
		if spans != tc.spans || latency != tc.latency {
			t.Errorf("%s: Collector has %d spans of %d cycles, want %d of %d", tc.name, spans, latency, tc.spans, tc.latency)
		}
		if csEnds != tc.spans || commits != tc.spans {
			t.Errorf("%s: Timeline has %d cs_ends and %d commits, want %d", tc.name, csEnds, commits, tc.spans)
		}
		for cat := CycleCat(0); int(cat) < NumCycleCats; cat++ {
			if got := rep.Cycles.Totals[cat]; got != tc.cycles[cat] {
				t.Errorf("%s: %s cycles = %d, want %d", tc.name, cat, got, tc.cycles[cat])
			}
		}
	}
}
