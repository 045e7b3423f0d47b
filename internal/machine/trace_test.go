package machine

import "testing"

func TestTracerReceivesMachineEvents(t *testing.T) {
	m := New(testConfig(2))
	var ct CountTracer
	m.SetTracer(&ct)
	m.Run(2, func(c *CPU) {
		c.Write(Addr(64+c.ID*16), 1)
		c.Read(Addr(64 + c.ID*16))
		c.CAS(256, 0, uint64(c.ID))
	})
	if ct.Counts[EvWrite] != 2 || ct.Counts[EvRead] != 2 || ct.Counts[EvCAS] != 2 {
		t.Errorf("counts = w:%d r:%d cas:%d", ct.Counts[EvWrite], ct.Counts[EvRead], ct.Counts[EvCAS])
	}
}

func TestTracerPageFaults(t *testing.T) {
	cfg := testConfig(1)
	cfg.Paging = PagingConfig{Enabled: true, PageWords: 64, ResidentLimit: 2, TLBEntries: 2}
	m := New(cfg)
	var ct CountTracer
	m.SetTracer(&ct)
	m.Run(1, func(c *CPU) {
		for p := int64(0); p < 8; p++ {
			c.Read(Addr(p * 64))
		}
	})
	if ct.Counts[EvPageFault] < 8 {
		t.Errorf("page-fault events = %d, want >= 8", ct.Counts[EvPageFault])
	}
}

func TestNoTracerNoOverheadPath(t *testing.T) {
	// Emit with no tracer installed must be a no-op (and not panic).
	m := New(testConfig(1))
	m.Run(1, func(c *CPU) {
		c.Emit(EvRead, 0, 0)
		c.Write(64, 1)
	})
}

func TestEventKindNames(t *testing.T) {
	for k := 0; k < NumEventKinds; k++ {
		if EventKind(k).String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if len(eventNames) != NumEventKinds {
		t.Errorf("eventNames has %d entries, want %d", len(eventNames), NumEventKinds)
	}
}

// TestCountTracerMatchesLogTotal fans one event stream into a CountTracer
// and a LogTracer via MultiTracer: the per-kind tallies must match the
// log, kind by kind.
func TestCountTracerMatchesLogTotal(t *testing.T) {
	log := &LogTracer{}
	counts := &CountTracer{}
	mt := MultiTracer{counts, nil, log} // nil entries must be skipped
	for i := 0; i < 100; i++ {
		mt.Event(Event{Kind: EventKind(i % NumEventKinds), Time: int64(i)})
	}
	if counts.Total() != int64(len(log.Events)) || len(log.Events) != 100 {
		t.Errorf("CountTracer.Total = %d, LogTracer kept %d, want 100", counts.Total(), len(log.Events))
	}
	var byKind [NumEventKinds]int64
	for _, e := range log.Events {
		byKind[e.Kind]++
	}
	if byKind != counts.Counts {
		t.Errorf("per-kind counts %v, log holds %v", counts.Counts, byKind)
	}
}

func TestLogTracerKeepsEverything(t *testing.T) {
	log := &LogTracer{}
	for i := 0; i < 1000; i++ {
		log.Event(Event{Time: int64(i)})
	}
	if len(log.Events) != 1000 {
		t.Fatalf("retained %d events", len(log.Events))
	}
	if log.Events[999].Time != 999 {
		t.Error("arrival order lost")
	}
}

func TestPackCSRoundTrip(t *testing.T) {
	for _, write := range []bool{false, true} {
		for path := uint64(0); path < 4; path++ {
			for _, retries := range []uint64{0, 1, 7, 1000} {
				w, p, r := UnpackCS(PackCS(write, path, retries))
				if w != write || p != path || r != retries {
					t.Errorf("roundtrip(%v,%d,%d) = (%v,%d,%d)", write, path, retries, w, p, r)
				}
			}
		}
	}
}
