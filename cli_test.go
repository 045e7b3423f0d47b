package hrwle

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hrwle/internal/harness"
	"hrwle/internal/obs"
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

// TestCLIRejectsTooManyCPUs: a CPU count above machine.MaxCPUs is a
// usage error on every command that takes one, rejected before any CPU is
// built: exit status 2 and one line naming the command and the limit,
// not a panic inside a point.
func TestCLIRejectsTooManyCPUs(t *testing.T) {
	for _, tc := range []struct {
		pkg  string
		args []string
	}{
		{"./cmd/hrwle-bench", []string{"-fig", "fig3", "-scale", "0.01", "-threads", "2,300", "-q"}},
		{"./cmd/hrwle-check", []string{"-threads", "300"}},
		{"./cmd/hrwle-serve", []string{"-workload", "hashmap", "-servers", "300", "-q"}},
		{"./cmd/hrwle-serve", []string{"-workload", "shard", "-servers", "300", "-q"}},
	} {
		msg := strings.TrimSuffix(strings.TrimSpace(runGoUsageError(t, tc.pkg, tc.args...)), "\nexit status 2")
		if strings.Contains(msg, "\n") || !strings.HasPrefix(msg, filepath.Base(tc.pkg)+": ") || !strings.Contains(msg, "MaxCPUs") {
			t.Errorf("%s %v: want one line naming the command and MaxCPUs, got:\n%s", tc.pkg, tc.args, msg)
		}
	}
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
		{"./cmd/hrwle-bench", []string{"-fig", "fig5", "-schemes", "FOO,SGL", "-threads", "2", "-writes", "10", "-events", "5"}},
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
// below one cycle a usage error), "-json -" and "-chrome -" as stdout
// (parseable JSON there, no file named "-"), the sharded store's flags
// only on -workload shard, with one offered load and with keys every point
// can run on, hrwle-serve's counts and seed only as values a point can
// run on (a given zero is an error, not the default), every single-point
// flag of hrwle-bench only on one figure point, and the removed hrwle-vet
// -cache flag as a usage error.
func TestSharedFlags(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goBin, "build", "-o", bin+"/",
		"./cmd/hrwle-bench", "./cmd/hrwle-serve", "./cmd/hrwle-vet")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	serve := []string{"-workload", "hashmap", "-requests", "100", "-schemes", "SGL", "-q", "-o", "report.txt"}
	shard := []string{"-workload", "shard", "-servers", "16", "-requests", "100", "-shards", "4", "-skews", "0",
		"-schemes", "SGL", "-universe", "16384", "-q", "-o", "report.txt"}
	point := []string{"-fig", "fig5", "-scale", "0.01", "-schemes", "SGL", "-threads", "2", "-writes", "10", "-q", "-o", "report.txt"}
	twoPoints := []string{"-fig", "fig5", "-scale", "0.01", "-schemes", "SGL", "-threads", "2,4", "-writes", "10", "-q", "-o", "report.txt"}
	type row struct {
		cmd      string
		args     []string
		exit     int
		jsonOnly bool // stdout must start with one JSON document
	}
	rows := []row{
		{"hrwle-bench", append([]string{"-window", "1e6", "-timeline", "t.json"}, point...), 0, false},
		{"hrwle-serve", append([]string{"-prof", "-servers", "2", "-window", "1e6"}, serve...), 0, false},
		{"hrwle-serve", append([]string{"-rates", "1e5", "-json", "-"}, serve...), 0, true},
		{"hrwle-serve", append([]string{"-prof", "-window", "0"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-timeline", "t.json", "-rates", "1e5", "-window", "0.5"}, serve...), 2, false},
		{"hrwle-bench", append([]string{"-window", "-5", "-timeline", "t.json"}, point...), 2, false},
		{"hrwle-serve", append([]string{"-rates", "3e6", "-json", "-"}, shard...), 0, true},
		{"hrwle-serve", append([]string{"-rates", "3e6", "-sanitize", "-json", "-"}, shard...), 0, true},
		{"hrwle-serve", append([]string{"-rates", "1e6,3e6"}, shard...), 2, false},
		// Later flags win: these override the shard point's own keys.
		{"hrwle-serve", append(slices.Clone(shard), "-rates", "3e6", "-universe", "-5"), 2, false},
		{"hrwle-serve", append(slices.Clone(shard), "-rates", "3e6", "-universe", "0"), 2, false},
		{"hrwle-serve", append(slices.Clone(shard), "-rates", "3e6", "-cross", "150"), 2, false},
		{"hrwle-serve", append(slices.Clone(shard), "-rates", "3e6", "-universe", "8", "-shards", "4,16"), 2, false},
		{"hrwle-serve", append([]string{"-shards", "4"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-timeline", "t.json", "-rates", "1e5", "-json", "x.json"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-chrome", "t.json", "-rates", "1e5", "-json", "x.json"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-servers", "-3"}, serve...), 2, false},
		{"hrwle-serve", []string{"-workload", "hashmap", "-requests", "-1"}, 2, false},
		{"hrwle-serve", append([]string{"-queue-cap", "-1"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-servers", "0", "-rates", "1e5"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-queue-cap", "0", "-rates", "1e5"}, serve...), 2, false},
		{"hrwle-serve", append([]string{"-seed", "0", "-rates", "1e5"}, serve...), 2, false},
		{"hrwle-serve", append(slices.Clone(shard), "-rates", "3e6", "-requests", "0"), 2, false},
		{"hrwle-bench", append([]string{"-chrome", "-"}, point...), 0, true},
		{"hrwle-bench", append([]string{"-events", "-1"}, point...), 2, false},
		{"hrwle-vet", []string{"-cache=false", "./..."}, 2, false},
	}
	for _, flag := range [][]string{{"-events", "5"}, {"-matrix"}, {"-hist"}, {"-chrome", "c.json"},
		{"-timeline", "t.json"}, {"-window", "1e6"}, {"-sanitize"}} {
		rows = append(rows, row{"hrwle-bench", append(flag, twoPoints...), 2, false})
	}
	for _, tc := range rows {
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

// TestBenchCLIRejectsBadScale: -scale is a finite multiplier above zero;
// anything else is a usage error, not a table of zeros.
func TestBenchCLIRejectsBadScale(t *testing.T) {
	for _, scale := range []string{"NaN", "+Inf", "0", "-1"} {
		out := runGoUsageError(t, "./cmd/hrwle-bench", "-fig", "fig3", "-scale", scale, "-threads", "2", "-q")
		if !strings.Contains(out, "-scale takes a finite multiplier") {
			t.Errorf("-scale %s: unexpected message:\n%s", scale, out)
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

// TestTraceCLIMultiScheme: a trace is of one figure point, so a trace
// flag on two schemes is a usage error, while the same two schemes sweep
// as table columns in the order given.
func TestTraceCLIMultiScheme(t *testing.T) {
	args := []string{"-fig", "fig5", "-scale", "0.01", "-schemes", "SGL,RW-LE_OPT", "-threads", "2", "-writes", "10", "-q"}
	out := runGoUsageError(t, "./cmd/hrwle-bench", append(args, "-events", "5")...)
	if !strings.Contains(out, "run one point") {
		t.Errorf("message does not name the one-point rule:\n%s", out)
	}
	out = runGo(t, "./cmd/hrwle-bench", args...)
	i, j := strings.Index(out, " SGL"), strings.Index(out, " RW-LE_OPT")
	if i < 0 || j < 0 || j < i {
		t.Errorf("scheme columns missing or out of the order given:\n%s", out)
	}
}

// buildBench builds hrwle-bench into a temporary directory and returns
// the binary's path.
func buildBench(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "hrwle-bench")
	if out, err := exec.Command(goBin, "build", "-o", bin, "./cmd/hrwle-bench").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// runBench runs the hrwle-bench binary in dir and returns its stdout.
func runBench(t *testing.T, bin, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("hrwle-bench %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// TestBenchPointMatchesSweep pins the one closed-system code path: a
// figure point run alone with the trace flags writes the same RunMetrics
// as that point's entry in the full -metrics-dir sweep of its figure. So
// does the point under -sanitize: its per-access events reach the
// sanitizer alone, so the event totals do not count them.
// fig10's points build two machines (the SGL@1 baseline, then the
// measured run); the measured run's metrics must win in both.
func TestBenchPointMatchesSweep(t *testing.T) {
	bin := buildBench(t)
	dir := t.TempDir()
	runBench(t, bin, dir, "-fig", "fig10", "-scale", "0.01", "-q", "-o", "sweep.txt", "-metrics-dir", "sweep")
	point := []string{"-fig", "fig10", "-scale", "0.01", "-schemes", "RW-LE_OPT", "-threads", "4", "-writes", "10", "-q"}
	runBench(t, bin, dir, append(point, "-o", "point.txt", "-metrics-dir", "point", "-events", "10", "-matrix", "-hist",
		"-chrome", "c.json", "-timeline", "t.json")...)
	runBench(t, bin, dir, append(point, "-o", "san.txt", "-metrics-dir", "san", "-sanitize")...)
	read := func(path string) *obs.RunMetrics {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, path))
		if err != nil {
			t.Fatal(err)
		}
		var rm obs.RunMetrics
		if err := json.Unmarshal(b, &rm); err != nil {
			t.Fatal(err)
		}
		return &rm
	}
	name := harness.MetricsFileName("fig10", "RW-LE_OPT")
	var want []byte
	for _, p := range read(filepath.Join("sweep", name)).Points {
		if p.Threads == 4 && p.WritePct == 10 {
			want = metricsJSONOf(t, p)
		}
	}
	if want == nil {
		t.Fatal("the sweep has no n=4 w=10% point")
	}
	for _, run := range []string{"point", "san"} {
		rm := read(filepath.Join(run, name))
		if len(rm.Points) != 1 {
			t.Fatalf("%s: one-point run wrote %d points", run, len(rm.Points))
		}
		if got := metricsJSONOf(t, rm.Points[0]); !bytes.Equal(got, want) {
			t.Errorf("%s: one-point metrics differ from the sweep's:\nsweep %s\npoint %s", run, want, got)
		}
	}
}

func metricsJSONOf(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchEventsAreLogTail: the -events N dump is the last N records of
// the event log the -chrome file is written from. The test runs the point
// through the harness with the log attached and requires the CLI's Chrome
// file to be that log's trace and its dump that log's tail.
func TestBenchEventsAreLogTail(t *testing.T) {
	bin := buildBench(t)
	dir := t.TempDir()
	const n = 40
	out := runBench(t, bin, dir, "-fig", "fig5", "-scale", "0.01", "-schemes", "RW-LE_PES", "-threads", "4",
		"-writes", "90", "-q", "-events", fmt.Sprint(n), "-chrome", "c.json")

	spec := harness.Registry()["fig5"]
	spec.Schemes, spec.Threads, spec.WritePcts = []string{"RW-LE_PES"}, []int{4}, []int{90}
	log := harness.RunClosed(spec, 0.01, harness.Attach{Log: true}, 1, nil)[0].Observed.Log.Events
	if len(log) < n {
		t.Fatalf("the point logged %d events, fewer than %d", len(log), n)
	}
	var chrome, dump bytes.Buffer
	if err := obs.WriteChromeTrace(&chrome, log); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(dir, "c.json")); err != nil || !bytes.Equal(got, chrome.Bytes()) {
		t.Errorf("-chrome file is not the point's event log (err %v)", err)
	}
	obs.WriteEvents(&dump, log[len(log)-n:])
	if !bytes.Contains(out, dump.Bytes()) {
		t.Errorf("-events %d dump is not the log's tail; want\n%s\nin\n%s", n, dump.Bytes(), out)
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
