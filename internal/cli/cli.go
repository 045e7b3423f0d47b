// Package cli holds the command-line plumbing the hrwle commands share:
// exiting on failure, opening the -o and -json outputs, the -q progress
// writer, comma-separated list flags and -schemes validation.
package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"hrwle/internal/harness"
)

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

// Output returns the writer for an -o flag — stdout when path is empty,
// else a new file — and the function that closes it after the last write.
func Output(path string) (io.Writer, func()) {
	if path == "" {
		return os.Stdout, func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		Fatal(err)
	}
	return f, func() {
		if err := f.Close(); err != nil {
			Fatal(err)
		}
	}
}

// WriteJSON writes docs to path as deterministic indented JSON: the
// document itself when there is one, a JSON array when there are several.
func WriteJSON(path string, docs ...any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	var v any = docs
	if len(docs) == 1 {
		v = docs[0]
	}
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
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

// ParseRates parses a comma-separated list of positive offered loads.
func ParseRates(s string) ([]float64, error) {
	return parseList(s, parseFloat, func(v float64) bool { return v > 0 }, "rate", "positive req/s")
}

// ParseSkews parses a comma-separated list of non-negative Zipf exponents.
func ParseSkews(s string) ([]float64, error) {
	return parseList(s, parseFloat, func(v float64) bool { return v >= 0 }, "skew", "non-negative exponent")
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

// ParseSchemes resolves a -schemes flag. The empty string gives def; "all"
// gives extra followed by every harness scheme; anything else is a
// comma-separated list whose names must each be a harness scheme or one
// of extra.
func ParseSchemes(s string, def []string, extra ...string) ([]string, error) {
	valid := append(slices.Clone(extra), harness.AllSchemes()...)
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
