// Package cli holds the command-line plumbing the hrwle commands share:
// the flags more than one command takes, exiting on failure, the one way
// a command writes an output file ("-" is stdout everywhere), the -q
// progress writer, comma-separated list flags and -schemes validation.
package cli

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"hrwle/internal/harness"
)

// Flags holds the values of the shared flags. A flag the command did not
// register keeps its zero value.
type Flags struct {
	Jobs     int    // -j
	Quiet    bool   // -q
	Out      string // -o
	JSON     string // -json
	Chrome   string // -chrome
	Timeline string // -timeline
	Window   int64  // -window; 0 when not given
	Sanitize bool   // -sanitize
}

// Register declares the named shared flags on the command line and
// returns the struct their values are parsed into. A flag only one
// command takes is declared in that command instead.
func Register(names ...string) *Flags {
	f := new(Flags)
	for _, name := range names {
		switch name {
		case "j":
			flag.IntVar(&f.Jobs, name, runtime.GOMAXPROCS(0), "measurement points to run concurrently")
		case "q":
			flag.BoolVar(&f.Quiet, name, false, "suppress per-point progress")
		case "o":
			flag.StringVar(&f.Out, name, "", "write the text report to this file (default stdout)")
		case "json":
			flag.StringVar(&f.JSON, name, "", "write the report JSON to this file ('-' for stdout)")
		case "chrome":
			flag.StringVar(&f.Chrome, name, "", "write a Chrome trace_event file of the run, for Perfetto or chrome://tracing ('-' for stdout)")
		case "timeline":
			flag.StringVar(&f.Timeline, name, "", "write the virtual-time profile JSON of the run to this file ('-' for stdout)")
		case "window":
			flag.Func(name, fmt.Sprintf("virtual-time window width, whole cycles >= 1 (default %d; on hrwle-serve -workload shard, the adaptive controller's window, default 50000, which the profiler then shares)", harness.DefaultProfWindow),
				func(s string) error {
					v, err := strconv.ParseFloat(s, 64)
					if err != nil || v < 1 || v != math.Trunc(v) || v > math.MaxInt64 {
						return errors.New("want a whole number of cycles >= 1")
					}
					f.Window = int64(v)
					return nil
				})
		case "sanitize":
			flag.BoolVar(&f.Sanitize, name, false, "attach the simsan happens-before race detector (exit 1 on any race)")
		default:
			panic("cli: no shared flag -" + name)
		}
	}
	return f
}

// Fatal prints err to stderr and exits 1: a requested run failed.
func Fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

// Usage prints err, prefixed with the command name, to stderr and exits 2:
// the command line asked for something that does not exist.
func Usage(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(2)
}

// create opens path for writing, "-" meaning stdout, and returns the
// writer with the function that closes it.
func create(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// Output returns the writer for an -o flag — stdout when path is empty —
// and the function that closes it after the last write.
func Output(path string) (io.Writer, func()) {
	if path == "" {
		path = "-"
	}
	w, closeW, err := create(path)
	if err != nil {
		Fatal(err)
	}
	return w, func() {
		if err := closeW(); err != nil {
			Fatal(err)
		}
	}
}

// WriteFile writes path through write, "-" meaning stdout. It is how a
// command streams an output file such as a Chrome trace.
func WriteFile(path string, write func(io.Writer) error) error {
	w, closeW, err := create(path)
	if err != nil {
		return err
	}
	if err := write(w); err != nil {
		closeW()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return closeW()
}

// WriteJSON writes docs to path ("-" for stdout) as deterministic indented
// JSON: the document itself when there is one, a JSON array when there
// are several.
func WriteJSON(path string, docs ...any) error {
	var v any = docs
	if len(docs) == 1 {
		v = docs[0]
	}
	return WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// Progress returns the per-point progress writer behind a -q flag: nil
// (no progress) when quiet, else stderr.
func Progress(quiet bool) io.Writer {
	if quiet {
		return nil
	}
	return os.Stderr
}

// ParseInts parses a comma-separated list of positive integers.
func ParseInts(s string) ([]int, error) {
	return parseList(s, strconv.Atoi, func(v int) bool { return v > 0 }, "count", "positive integer")
}

// ParsePcts parses a comma-separated list of percentages, 0 to 100.
func ParsePcts(s string) ([]int, error) {
	return parseList(s, strconv.Atoi, func(v int) bool { return v >= 0 && v <= 100 }, "percentage", "integer 0-100")
}

// ParseRates parses a comma-separated list of positive offered loads.
func ParseRates(s string) ([]float64, error) {
	return parseList(s, parseFloat, func(v float64) bool { return v > 0 }, "rate", "positive req/s")
}

// ParseSkews parses a comma-separated list of finite, non-negative Zipf
// exponents.
func ParseSkews(s string) ([]float64, error) {
	return parseList(s, parseFloat, func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }, "skew", "finite non-negative exponent")
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

func parseList[T any](s string, parse func(string) (T, error), ok func(T) bool, what, want string) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil || !ok(v) {
			return nil, fmt.Errorf("bad %s %q (want %s)", what, part, want)
		}
		out = append(out, v)
	}
	return out, nil
}

// FormatInts renders vs as a comma-separated list.
func FormatInts(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// FormatFloats renders vs as a comma-separated list in shortest form.
func FormatFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

// ParseSchemes resolves a -schemes flag against extra followed by every
// harness scheme, as ParseSchemesOf does.
func ParseSchemes(s string, def []string, extra ...string) ([]string, error) {
	return ParseSchemesOf(s, def, append(slices.Clone(extra), harness.AllSchemes()...))
}

// ParseSchemesOf resolves a -schemes flag against the scheme names valid.
// The empty string gives def; "all" gives valid; anything else is a
// comma-separated list whose names must each be in valid.
func ParseSchemesOf(s string, def, valid []string) ([]string, error) {
	switch s {
	case "":
		return def, nil
	case "all":
		return valid, nil
	}
	var out []string
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown scheme %q (want all or a list of %s)", name, strings.Join(valid, ","))
		}
		out = append(out, name)
	}
	return out, nil
}
