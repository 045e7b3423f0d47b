package enginediff

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the engine golden capture")

const goldenPath = "testdata/engine_golden.json"

// TestEngineEquivalence asserts that the current tree reproduces the
// committed capture bit for bit: every figure point's cycles and event
// stream, every Print table, every checker exploration, both
// seeded-mutation replay tokens, every open-system point's streams, result
// and engine counters, and the obs exports. A failure names each entry
// that diverged; a point that panicked, a livelock past its deadline among
// them, diverges with the panic in place of its fingerprint.
func TestEngineEquivalence(t *testing.T) {
	got := CaptureAll()

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden capture rewritten: %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden capture (regenerate on a KNOWN-GOOD engine with -update): %v", err)
	}
	var want Capture
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden capture: %v", err)
	}

	if len(got.Figures) != len(want.Figures) {
		t.Fatalf("figure count drifted: got %d, want %d", len(got.Figures), len(want.Figures))
	}
	for i, wf := range want.Figures {
		gf := got.Figures[i]
		if gf.ID != wf.ID {
			t.Fatalf("figure order drifted at %d: got %s, want %s", i, gf.ID, wf.ID)
		}
		compare(t, gf.ID+" point", gf.Points, wf.Points, func(p PointCapture) string {
			return fmt.Sprintf("(%s n=%d w=%d%%)", p.Scheme, p.Threads, p.WritePct)
		})
		if gf.Print != wf.Print {
			t.Errorf("%s: Print bytes diverged\n--- got ---\n%s\n--- want ---\n%s", gf.ID, gf.Print, wf.Print)
		}
	}
	compare(t, "exploration", got.Explorations, want.Explorations, func(e ExploreCapture) string { return e.Scheme + "/" + e.Program })
	compare(t, "mutation", got.Mutations, want.Mutations, func(m MutationCapture) string { return m.Scheme + "/" + m.Mutation })
	compare(t, "open-system point", got.Open, want.Open, func(o OpenCapture) string { return o.Point })
	compare(t, "export", got.Exports, want.Exports, func(e ExportCapture) string { return e.Export })
}

// compare reports every entry of one capture section that differs from
// the recorded one, labelled by name.
func compare[T comparable](t *testing.T, section string, got, want []T, name func(T) string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s count drifted: got %d, want %d", section, len(got), len(want))
		return
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s %s diverged:\n  got  %+v\n  want %+v", section, name(w), got[i], w)
		}
	}
}

// TestCaptureIsDeterministic guards the harness itself: two captures of the
// mini-sweeps on the same engine must be identical, otherwise a golden
// mismatch could be blamed on the engine when the harness is at fault.
// Figure fig5 alone keeps the double run cheap.
func TestCaptureIsDeterministic(t *testing.T) {
	a, b := captureFigure(miniSpec("fig5")), captureFigure(miniSpec("fig5"))
	if a.Print != b.Print || len(a.Points) != len(b.Points) {
		t.Fatal("repeated capture diverged in shape")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Errorf("point %d not deterministic:\n  first  %+v\n  second %+v", i, a.Points[i], b.Points[i])
		}
	}
}
