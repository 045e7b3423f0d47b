// Command hrwle-vet runs the simlint static-analysis suite — the
// determinism, abortflow and txdiscipline analyzers — over the module and
// exits non-zero if any invariant is violated.
//
// Usage:
//
//	go run ./cmd/hrwle-vet ./...
//	go run ./cmd/hrwle-vet -list
//
// The -json report carries the diagnostics, the number suppressed by
// //simlint:allow and each analyzer's wall time.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hrwle/internal/cli"
	"hrwle/internal/simlint"
)

type jsonDiag struct {
	Position string `json:"position"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// result is one run's verdict, as the -json report renders it.
type result struct {
	Diagnostics []jsonDiag               `json:"diagnostics"`
	Suppressed  int                      `json:"suppressed"`
	Timings     []simlint.AnalyzerTiming `json:"timings,omitempty"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON")
	list := flag.Bool("list", false, "print the registered analyzers and exit")
	flag.Parse()
	if *list {
		listAnalyzers()
		os.Exit(0)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(run(patterns, *jsonOut))
}

// listAnalyzers prints each registered analyzer's name and the first line
// of its doc string.
func listAnalyzers() {
	for _, a := range simlint.NewAnalyzers() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Printf("%-14s %s\n", a.Name, doc)
	}
}

// run analyzes the packages matching patterns, prints the result and
// returns the process exit code.
func run(patterns []string, jsonOut bool) int {
	fset, pkgs, err := simlint.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrwle-vet: %v\n", err)
		return 2
	}
	suite := simlint.NewSuite()
	diags, err := suite.Run(fset, pkgs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hrwle-vet: %v\n", err)
		return 2
	}

	res := &result{Suppressed: suite.Suppressed, Timings: suite.Timings()}
	for _, d := range diags {
		res.Diagnostics = append(res.Diagnostics, jsonDiag{
			Position: fset.Position(d.Pos).String(),
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	if jsonOut {
		if err := cli.WriteJSON("-", res); err != nil {
			fmt.Fprintf(os.Stderr, "hrwle-vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Printf("%s: [%s] %s\n", d.Position, d.Analyzer, d.Message)
		}
	}
	if n := len(res.Diagnostics); n > 0 {
		fmt.Fprintf(os.Stderr, "hrwle-vet: %d violation(s), %d suppressed by //simlint:allow\n", n, res.Suppressed)
		return 1
	}
	fmt.Fprintf(os.Stderr, "hrwle-vet: ok (%d suppressed by //simlint:allow)\n", res.Suppressed)
	return 0
}
