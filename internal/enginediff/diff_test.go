package enginediff

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the engine golden capture")

const goldenPath = "testdata/engine_golden.json"

// TestEngineEquivalence asserts that the current engine reproduces, bit for
// bit, the capture recorded on the previous engine: every figure point's
// cycles and event stream, every Print table, every checker exploration and
// both seeded-mutation replay tokens. A failure here means the engine
// changed *simulation semantics*, not just its execution machinery.
func TestEngineEquivalence(t *testing.T) {
	got := CaptureAll()

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
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
		if len(gf.Points) != len(wf.Points) {
			t.Errorf("%s: point count drifted: got %d, want %d", gf.ID, len(gf.Points), len(wf.Points))
			continue
		}
		for j, wp := range wf.Points {
			gp := gf.Points[j]
			if gp != wp {
				t.Errorf("%s point %d (%s n=%d w=%d%%) diverged:\n  got  %+v\n  want %+v",
					gf.ID, j, wp.Scheme, wp.Threads, wp.WritePct, gp, wp)
			}
		}
		if gf.Print != wf.Print {
			t.Errorf("%s: Print bytes diverged\n--- got ---\n%s\n--- want ---\n%s", gf.ID, gf.Print, wf.Print)
		}
	}

	if len(got.Explorations) != len(want.Explorations) {
		t.Fatalf("exploration count drifted: got %d, want %d", len(got.Explorations), len(want.Explorations))
	}
	for i, we := range want.Explorations {
		if ge := got.Explorations[i]; ge != we {
			t.Errorf("exploration %s/%s diverged:\n  got  %+v\n  want %+v", we.Scheme, we.Program, ge, we)
		}
	}

	if len(got.Mutations) != len(want.Mutations) {
		t.Fatalf("mutation count drifted: got %d, want %d", len(got.Mutations), len(want.Mutations))
	}
	for i, wm := range want.Mutations {
		if gm := got.Mutations[i]; gm != wm {
			t.Errorf("mutation %s/%s diverged:\n  got  %+v\n  want %+v", wm.Scheme, wm.Mutation, gm, wm)
		}
	}

	if len(got.Open) != len(want.Open) {
		t.Fatalf("open-system point count drifted: got %d, want %d", len(got.Open), len(want.Open))
	}
	for i, wo := range want.Open {
		if g := got.Open[i]; g != wo {
			t.Errorf("open-system point %s diverged:\n  got  %+v\n  want %+v", wo.Point, g, wo)
		}
	}
}

// TestCaptureIsDeterministic guards the harness itself: two captures of the
// mini-sweeps on the same engine must be identical, otherwise a golden
// mismatch could be blamed on the engine when the harness is at fault.
// Figure fig5 alone keeps the double run cheap.
func TestCaptureIsDeterministic(t *testing.T) {
	a, b := captureFigure("fig5"), captureFigure("fig5")
	if a.Print != b.Print || len(a.Points) != len(b.Points) {
		t.Fatal("repeated capture diverged in shape")
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Errorf("point %d not deterministic:\n  first  %+v\n  second %+v", i, a.Points[i], b.Points[i])
		}
	}
}
