package hrwle

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"hrwle/internal/harness"
)

// runGo executes `go run pkg args...` from the repo root and returns the
// combined output. Skips the test when no go tool is on PATH (e.g. a
// stripped CI runner executing a prebuilt test binary).
func runGo(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goBin, append([]string{"run", pkg}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s %v failed: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

// runGoUsageError executes `go run pkg args...` and requires the command
// to reject its command line: exit status 2 (which go run reports as
// "exit status 2") with a one-line message and no Go stack trace. It
// returns the combined output.
func runGoUsageError(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goBin, append([]string{"run", pkg}, args...)...)
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "exit status 2") {
		t.Fatalf("go run %s %v: want exit status 2, got %v\n%s", pkg, args, err, out)
	}
	if strings.Contains(string(out), "goroutine ") {
		t.Errorf("go run %s %v printed a stack trace:\n%s", pkg, args, out)
	}
	return string(out)
}

// TestCLIRejectsUnknownScheme: every scheme-taking CLI validates its
// scheme list up front instead of panicking inside a point.
func TestCLIRejectsUnknownScheme(t *testing.T) {
	for _, tc := range []struct {
		pkg  string
		args []string
	}{
		{"./cmd/hrwle-serve", []string{"-workload", "hashmap", "-schemes", "FOO"}},
		{"./cmd/hrwle-serve", []string{"-prof", "-workload", "hashmap", "-schemes", "SGL,FOO"}},
		{"./cmd/hrwle-trace", []string{"-scheme", "FOO,SGL", "-j", "2"}},
		{"./cmd/hrwle-serve", []string{"-workload", "shard", "-schemes", "adaptive,FOO"}},
	} {
		out := runGoUsageError(t, tc.pkg, tc.args...)
		if !strings.Contains(out, `unknown scheme "FOO"`) {
			t.Errorf("%s %v: message does not name the bad scheme:\n%s", tc.pkg, tc.args, out)
		}
	}
}

// TestSharedFlags runs the flags several commands share through each
// command that takes them: -window in whole cycles written as a float (and
// below one cycle a usage error), "-json -" as stdout (parseable JSON
// there, no file named "-"), the sharded store's flags only on -workload
// shard and with one offered load, and the removed hrwle-vet -cache flag
// as a usage error.
func TestSharedFlags(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goBin, "build", "-o", bin+"/",
		"./cmd/hrwle-trace", "./cmd/hrwle-serve", "./cmd/hrwle-vet")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	serve := []string{"-workload", "hashmap", "-requests", "100", "-schemes", "SGL", "-q", "-o", "report.txt"}
	shard := []string{"-workload", "shard", "-servers", "16", "-requests", "100", "-shards", "4", "-skews", "0",
		"-schemes", "SGL", "-universe", "16384", "-q", "-o", "report.txt"}
	for _, tc := range []struct {
		cmd      string
		args     []string
		exit     int
		jsonOnly bool // stdout must start with one JSON document
	}{
		{"hrwle-trace", []string{"-ops", "5", "-q", "-window", "1e6", "-timeline", "t.json"}, 0, false},
		{"hrwle-serve", append([]string{"-prof", "-servers", "2", "-window", "1e6"}, serve...), 0, false},
		{"hrwle-serve", append([]string{"-rates", "1e5", "-json", "-"}, serve...), 0, true},
		{"hrwle-serve", append([]string{"-prof", "-window", "0"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-timeline", "t.json", "-rates", "1e5", "-window", "0.5"}, serve...), 2, false},
		{"hrwle-trace", []string{"-ops", "5", "-q", "-window", "-5", "-timeline", "t.json"}, 2, false},
		{"hrwle-serve", append([]string{"-rates", "3e6", "-json", "-"}, shard...), 0, true},
		{"hrwle-serve", append([]string{"-rates", "3e6", "-sanitize", "-json", "-"}, shard...), 0, true},
		{"hrwle-serve", append([]string{"-rates", "1e6,3e6"}, shard...), 2, false},
		{"hrwle-serve", append([]string{"-shards", "4"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-timeline", "t.json", "-rates", "1e5", "-json", "x.json"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-chrome", "t.json", "-rates", "1e5", "-json", "x.json"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-servers", "-3"}, serve...), 2, false},
		{"hrwle-serve", []string{"-workload", "hashmap", "-requests", "-1"}, 2, false},
		{"hrwle-serve", append([]string{"-queue-cap", "-1"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-servers", "0", "-queue-cap", "0", "-rates", "1e5"}, serve...), 0, false},
		{"hrwle-trace", []string{"-ops", "5", "-q", "-json", "-"}, 0, true},
		{"hrwle-vet", []string{"-cache=false", "./..."}, 2, false},
	} {
		dir := t.TempDir()
		cmd := exec.Command(filepath.Join(bin, tc.cmd), tc.args...)
		cmd.Dir = dir
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		exit := 0
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			exit = exitErr.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		if exit != tc.exit {
			t.Errorf("%s %v: exit %d, want %d\n%s", tc.cmd, tc.args, exit, tc.exit, stderr.Bytes())
			continue
		}
		if tc.jsonOnly {
			var doc any
			if err := json.NewDecoder(&stdout).Decode(&doc); err != nil {
				t.Errorf("%s %v: stdout does not start with JSON: %v", tc.cmd, tc.args, err)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "-")); err == nil {
			t.Errorf("%s %v: created a file named -", tc.cmd, tc.args)
		}
	}
}

// TestBenchCLIRejectsBadThreads: -threads is parsed strictly; garbage is
// a usage error, not an empty or silently repaired sweep.
func TestBenchCLIRejectsBadThreads(t *testing.T) {
	for _, threads := range []string{"abc", "2,x8", "0"} {
		out := runGoUsageError(t, "./cmd/hrwle-bench", "-fig", "fig3", "-scale", "0.01", "-threads", threads, "-q")
		if !strings.Contains(out, "bad count") {
			t.Errorf("-threads %s: unexpected message:\n%s", threads, out)
		}
	}
}

// TestBenchCLISmoke regenerates one tiny figure through the real CLI and
// checks the report carries the expected sections and schemes.
func TestBenchCLISmoke(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-bench", "-fig", "fig3", "-scale", "0.01", "-threads", "2", "-q")
	for _, want := range []string{"fig3", "RW-LE_OPT", "abort breakdown", "commit breakdown"} {
		if !strings.Contains(out, want) {
			t.Errorf("hrwle-bench output missing %q:\n%s", want, out)
		}
	}
}

// TestBenchCLIList checks the figure listing names every registered
// figure.
func TestBenchCLIList(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-bench", "-list")
	for _, id := range harness.SortedIDs(harness.Registry()) {
		if !strings.Contains(out, "\n  "+id+" ") {
			t.Errorf("hrwle-bench -list missing %q:\n%s", id, out)
		}
	}
}

// TestBenchCLIParallelIdentical sweeps the same tiny figures at -j 1 and
// -j 8 through the real CLI and requires identical tables: the parallel
// harness must never change virtual-time results. fig10 is the figure
// whose points share state (the SGL@1 baseline cache).
func TestBenchCLIParallelIdentical(t *testing.T) {
	for _, fig := range []string{"fig3", "fig10"} {
		t.Run(fig, func(t *testing.T) {
			// Compare the -o files, not process output: stderr carries
			// wall-clock chatter that legitimately differs between runs.
			dir := t.TempDir()
			serialPath := filepath.Join(dir, "serial.txt")
			parallelPath := filepath.Join(dir, "parallel.txt")
			args := []string{"-fig", fig, "-scale", "0.01", "-threads", "2,4", "-q"}
			runGo(t, "./cmd/hrwle-bench", append([]string{"-j", "1", "-o", serialPath}, args...)...)
			runGo(t, "./cmd/hrwle-bench", append([]string{"-j", "8", "-o", parallelPath}, args...)...)
			serial, err := os.ReadFile(serialPath)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := os.ReadFile(parallelPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serial, parallel) {
				t.Errorf("-j changed figure output\n--- -j1 ---\n%s\n--- -j8 ---\n%s", serial, parallel)
			}
		})
	}
}

// TestTraceCLIMultiScheme traces two schemes in one invocation and checks
// both reports arrive in the order given.
func TestTraceCLIMultiScheme(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-trace", "-scheme", "RW-LE_OPT,SGL", "-q", "-ops", "5")
	i := strings.Index(out, "scheme=RW-LE_OPT")
	j := strings.Index(out, "scheme=SGL")
	if i < 0 || j < 0 || j < i {
		t.Errorf("multi-scheme trace reports missing or out of order:\n%s", out)
	}
}

// TestCheckCLISmoke runs a tiny exploration through cmd/hrwle-check.
func TestCheckCLISmoke(t *testing.T) {
	out := runGo(t, "./cmd/hrwle-check", "-scheme", "RW-LE_OPT", "-program", "record", "-budget", "200")
	if !strings.Contains(out, "RW-LE_OPT/record") || !strings.Contains(out, "executions") {
		t.Errorf("hrwle-check output unexpected:\n%s", out)
	}
	if strings.Contains(out, "VIOLATION") {
		t.Errorf("unmutated RW-LE_OPT reported a violation:\n%s", out)
	}
}

// TestQuickstartExample keeps the README's quickstart example running.
func TestQuickstartExample(t *testing.T) {
	out := runGo(t, "./examples/quickstart")
	if len(strings.TrimSpace(out)) == 0 {
		t.Error("quickstart example produced no output")
	}
	if strings.Contains(strings.ToLower(out), "panic") {
		t.Errorf("quickstart example panicked:\n%s", out)
	}
}
