package hrwle

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestServeCLISmoke runs a tiny open-system sweep through the real CLI
// and checks the saturation panels and per-class latency rows appear.
func TestServeCLISmoke(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-serve",
		"-workload", "hashmap", "-requests", "400",
		"-schemes", "RW-LE_OPT,SGL", "-rates", "5e5,5e6", "-q")
	for _, want := range []string{
		"open-system service sweep", "achieved throughput", "drop rate",
		"sojourn p99", "class interactive", "RW-LE_OPT", "SGL",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-serve output missing %q:\n%s", want, out)
		}
	}
}

// TestServeCLIList checks the workload listing, the sharded store's row
// included.
func TestServeCLIList(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-serve", "-list")
	for _, want := range []string{"hashmap", "kyoto", "tpcc", "RW-LE_OPT",
		"\n  shard    2e+07  knee 2e+07  schemes adaptive,RW-LE_OPT,HLE,SGL  × shards 4,16,64 × skews 0,0.9,1.2"} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-serve -list missing %q:\n%s", want, out)
		}
	}
}

// TestServeCLIParallelIdentical runs the same sweep at -j 1 and -j 4 and
// requires byte-identical text and JSON files: worker count must never
// leak into results.
func TestServeCLIParallelIdentical(t *testing.T) {
	dir := t.TempDir()
	run := func(j, suffix string) (txt, js []byte) {
		txtPath := filepath.Join(dir, "serve-"+suffix+".txt")
		jsonPath := filepath.Join(dir, "serve-"+suffix+".json")
		runGo(t, "./cmd/hrwle-serve",
			"-workload", "hashmap", "-requests", "400",
			"-schemes", "RW-LE_OPT,SGL", "-rates", "5e5,5e6",
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
	txt4, js4 := run("4", "j4")
	if !bytes.Equal(txt1, txt4) {
		t.Error("-j changed hrwle-serve text output")
	}
	if !bytes.Equal(js1, js4) {
		t.Error("-j changed hrwle-serve JSON output")
	}
}

// TestServeCLIAllWorkloadsJSON: with -workload all, -json holds one JSON
// array with a report per workload, for the sweep and for -prof.
func TestServeCLIAllWorkloadsJSON(t *testing.T) {
	dir := t.TempDir()
	for _, mode := range [][]string{
		{"-rates", "1e5"},
		{"-prof", "-servers", "2"},
	} {
		path := filepath.Join(dir, "all.json")
		runGo(t, "./cmd/hrwle-serve", append(mode,
			"-workload", "all", "-requests", "100", "-schemes", "SGL", "-q",
			"-o", os.DevNull, "-json", path)...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var reports []struct {
			Workload string `json:"workload"`
		}
		if err := json.Unmarshal(data, &reports); err != nil {
			t.Fatalf("%v: -workload all -json is not one JSON array: %v", mode, err)
		}
		var got []string
		for _, r := range reports {
			got = append(got, r.Workload)
		}
		if strings.Join(got, ",") != "hashmap,kyoto,tpcc" {
			t.Errorf("%v: report workloads = %v, want hashmap,kyoto,tpcc", mode, got)
		}
	}
}
