package shard

import (
	"bytes"
	"encoding/json"
	"testing"

	"hrwle/internal/obs"
)

// TestShardObserversChangeNothing runs the switching point three ways
// through the service runner — plain, with a virtual-time profile, and
// under the race sanitizer — and requires byte-identical Result JSON: the
// profiler and the sanitizer only observe the event stream, so neither may
// move a switch, a shard counter or a cycle. The sanitizer's report must
// be the same on a repeat run. Its race count here is logged, not
// asserted: simsan has no happens-before edge for the shard gate's drain
// and switch, so on this point it flags plain RW-LE reads that end before
// a drained RW-LE→HLE switch against HLE commits after it (EXPERIMENTS.md).
func TestShardObserversChangeNothing(t *testing.T) {
	cfg := switchConfig()
	enc := func(v any) []byte {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	plain, _, _, err := RunObserved(cfg, palette(), bounded, obs.Attach{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Switches) == 0 {
		t.Fatal("switching point made no scheme switch")
	}
	profiled, _, o, err := RunObserved(cfg, palette(), bounded, obs.Attach{Prof: true, Window: cfg.Window})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Profile.Timeline.Report().Windows) == 0 {
		t.Fatal("profile recorded no timeline window")
	}
	sanitized, _, o, err := RunObserved(cfg, palette(), bounded, obs.Attach{Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	_, _, o2, err := RunObserved(cfg, palette(), bounded, obs.Attach{Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, rep2 := o.Races, o2.Races

	want := enc(plain)
	if got := enc(profiled); !bytes.Equal(got, want) {
		t.Errorf("profiler changed the result:\nplain    %s\nprofiled %s", want, got)
	}
	if got := enc(sanitized); !bytes.Equal(got, want) {
		t.Errorf("sanitizer changed the result:\nplain     %s\nsanitized %s", want, got)
	}
	if rep.Events == 0 {
		t.Fatal("sanitizer saw no events")
	}
	if a, b := enc(rep), enc(rep2); !bytes.Equal(a, b) {
		t.Errorf("sanitizer report differs on a repeat run:\n%s\nvs\n%s", a, b)
	}
	t.Logf("switching point: %d switches, %d race(s) over %d events", len(plain.Switches), rep.Total, rep.Events)
}

// TestShardSanitizerCleanFixed race-checks each rung of the adaptive
// ladder alone: with no switch there is no scheme swap to miss, so every
// fixed-scheme shard point must be race-free.
func TestShardSanitizerCleanFixed(t *testing.T) {
	for _, s := range palette() {
		t.Run(s.Name, func(t *testing.T) {
			_, _, o, err := RunObserved(testConfig(), []Scheme{s}, bounded, obs.Attach{Sanitize: true})
			if err != nil {
				t.Fatal(err)
			}
			rep := o.Races
			if rep.Events == 0 {
				t.Fatal("sanitizer saw no events")
			}
			if rep.Racy() {
				var b bytes.Buffer
				rep.WriteText(&b)
				t.Fatalf("sanitizer reported race(s) on a fixed-scheme point:\n%s", b.String())
			}
		})
	}
}
