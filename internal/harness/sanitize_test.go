package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"hrwle/internal/service"
)

// serveSanitizeSchemes is every scheme the service workloads can run under:
// the default sweep set plus the remaining RW-LE variants and the
// non-eliding baseline — the sanitizer must hold across all of them.
func serveSanitizeSchemes() []string {
	return []string{
		"RW-LE_OPT", "RW-LE_PES", "RW-LE_FAIR", "RW-LE_SPLIT",
		"HLE", "BRLock", "RWL", "SGL",
	}
}

// kneeRate picks the middle of a workload's calibrated rate grid — the
// grids straddle the saturation knee, so the midpoint is the contended
// regime where speculation, fallback and quiescence all fire.
func kneeRate(t *testing.T, workload string) (service.Config, float64) {
	t.Helper()
	spec, err := DefaultServeSpec(workload)
	if err != nil {
		t.Fatal(err)
	}
	return spec.Base, spec.Rates[len(spec.Rates)/2]
}

// TestServeSanitizerClean race-checks every scheme on every service
// workload at its knee rate: thousands of production-shaped critical
// sections with real reader/writer mixes, suspension windows and fallback
// transitions must produce zero happens-before reports.
func TestServeSanitizerClean(t *testing.T) {
	for _, wl := range ServeWorkloads() {
		base, rate := kneeRate(t, wl)
		base.Requests = 400
		base.Arrivals.RatePerSec = rate
		for _, scheme := range serveSanitizeSchemes() {
			t.Run(fmt.Sprintf("%s/%s", wl, scheme), func(t *testing.T) {
				_, _, o, err := service.RunPointObserved(base, scheme, SchemeFactory(scheme), nil, Attach{Sanitize: true})
				if err != nil {
					t.Fatal(err)
				}
				rep := o.Races
				if rep.Racy() {
					var b bytes.Buffer
					rep.WriteText(&b)
					t.Fatalf("sanitizer reported race(s) on a correct scheme:\n%s", b.String())
				}
				if rep.Events == 0 {
					t.Fatal("sanitizer saw no events — access tracing not enabled?")
				}
			})
		}
	}
}

// TestServeSanitizerZeroCost is the zero-cost-when-disabled guard at the
// service layer: a sanitized run must report byte-identical point metrics
// — including sim_cycles (MakespanCycles) — to a plain run of the same
// configuration, and be deterministic across repeats. The sanitizer is an
// observer; if attaching it ever shifted a single virtual cycle, every
// sanitized result would stop being representative.
func TestServeSanitizerZeroCost(t *testing.T) {
	base, rate := kneeRate(t, "hashmap")
	base.Requests = 400
	base.Arrivals.RatePerSec = rate
	scheme := "RW-LE_OPT"

	plain, _, err := service.RunPoint(base, scheme, SchemeFactory(scheme), nil)
	if err != nil {
		t.Fatal(err)
	}
	san1, _, o1, err := service.RunPointObserved(base, scheme, SchemeFactory(scheme), nil, Attach{Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	san2, _, o2, err := service.RunPointObserved(base, scheme, SchemeFactory(scheme), nil, Attach{Sanitize: true})
	if err != nil {
		t.Fatal(err)
	}
	rep1, rep2 := o1.Races, o2.Races

	enc := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(enc(plain), enc(san1)) {
		t.Errorf("sanitizer perturbed the point metrics:\nplain     %s\nsanitized %s",
			enc(plain), enc(san1))
	}
	if plain.MakespanCycles != san1.MakespanCycles {
		t.Errorf("sim_cycles drifted: plain %d, sanitized %d",
			plain.MakespanCycles, san1.MakespanCycles)
	}
	if !bytes.Equal(enc(san1), enc(san2)) || !bytes.Equal(enc(rep1), enc(rep2)) {
		t.Error("sanitized run not deterministic across repeats")
	}
}
