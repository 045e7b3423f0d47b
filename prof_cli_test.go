package hrwle

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfCLISmoke runs a tiny profile point through hrwle-serve -prof and
// checks the cross-scheme breakdown table and per-scheme panels appear.
func TestProfCLISmoke(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-serve", "-prof",
		"-workload", "hashmap", "-requests", "300", "-servers", "4",
		"-schemes", "RW-LE_OPT,SGL", "-q")
	for _, want := range []string{
		"virtual-time profile", "cycle breakdown", "useful", "fallback",
		"idle", "cycle attribution", "virtual-time series",
		"throughput (CS/s)", "sojourn p99", "RW-LE_OPT", "SGL",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-serve -prof output missing %q:\n%s", want, out)
		}
	}
}

// TestProfCLIList checks the listing shows each workload's knee load and
// the full scheme menu -prof accepts.
func TestProfCLIList(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-serve", "-prof", "-list")
	for _, want := range []string{"hashmap", "kyoto", "tpcc", "knee 3e+06", "RW-LE_OPT", "RW-LE_basic"} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-serve -prof -list missing %q:\n%s", want, out)
		}
	}
}

// TestProfCLIParallelIdentical runs the same profile at -j 1 and -j 8 and
// requires byte-identical text and JSON: worker count must never leak into
// the report.
func TestProfCLIParallelIdentical(t *testing.T) {
	dir := t.TempDir()
	run := func(j, suffix string) (txt, js []byte) {
		txtPath := filepath.Join(dir, "prof-"+suffix+".txt")
		jsonPath := filepath.Join(dir, "prof-"+suffix+".json")
		runGo(t, "./cmd/hrwle-serve", "-prof",
			"-workload", "hashmap", "-requests", "300", "-servers", "4",
			"-schemes", "RW-LE_OPT,HLE,SGL",
			"-j", j, "-q", "-o", txtPath, "-json", jsonPath)
		var err error
		if txt, err = os.ReadFile(txtPath); err != nil {
			t.Fatal(err)
		}
		if js, err = os.ReadFile(jsonPath); err != nil {
			t.Fatal(err)
		}
		return txt, js
	}
	txt1, js1 := run("1", "j1")
	txt8, js8 := run("8", "j8")
	if !bytes.Equal(txt1, txt8) {
		t.Error("-j changed hrwle-serve -prof text output")
	}
	if !bytes.Equal(js1, js8) {
		t.Error("-j changed hrwle-serve -prof JSON output")
	}
}
