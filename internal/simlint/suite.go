package simlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// NewAnalyzers returns the simlint suite: determinism, abortflow and
// txdiscipline.
func NewAnalyzers() []*Analyzer {
	return []*Analyzer{
		NewDeterminism(),
		NewAbortFlow(),
		NewTxDiscipline(),
	}
}

// Suite runs the analyzers of NewAnalyzers over the root packages of a
// loaded module, applying //simlint:allow suppression.
type Suite struct {
	Analyzers []*Analyzer

	fset *token.FileSet

	allows []allowDirective
	diags  []Diagnostic
	seen   map[string]bool
	spent  []time.Duration

	// Suppressed counts diagnostics silenced by //simlint:allow.
	Suppressed int
}

// AnalyzerTiming is one analyzer's wall time accumulated across every
// package of a Run, in analyzer registration order.
type AnalyzerTiming struct {
	Name   string  `json:"analyzer"`
	Millis float64 `json:"millis"`
}

// Timings returns per-analyzer wall time for the last Run (nil before).
func (s *Suite) Timings() []AnalyzerTiming {
	var out []AnalyzerTiming
	for i, a := range s.Analyzers {
		if i >= len(s.spent) {
			break
		}
		out = append(out, AnalyzerTiming{
			Name:   a.Name,
			Millis: float64(s.spent[i]) / float64(time.Millisecond),
		})
	}
	return out
}

// allowDirective is one parsed //simlint:allow comment.
type allowDirective struct {
	file      string
	analyzer  string
	wholeFile bool
	fromLine  int // inclusive
	toLine    int // inclusive
}

// NewSuite creates a suite of the analyzers NewAnalyzers returns.
func NewSuite() *Suite {
	return &Suite{Analyzers: NewAnalyzers(), seen: make(map[string]bool)}
}

// Run applies every analyzer to every root package of pkgs (as produced
// by Load; the others were loaded only to type-check the roots) and
// returns the surviving diagnostics sorted by position.
func (s *Suite) Run(fset *token.FileSet, pkgs []*Package) ([]Diagnostic, error) {
	s.fset = fset
	s.spent = make([]time.Duration, len(s.Analyzers))
	for _, pkg := range pkgs {
		if !pkg.Root {
			continue
		}
		s.collectAllows(pkg)
		for ai, a := range s.Analyzers {
			pass := &Pass{
				Analyzer:  a,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				suite:     s,
			}
			t0 := time.Now()
			err := a.Run(pass)
			s.spent[ai] += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(s.diags, func(i, j int) bool {
		pi, pj := fset.Position(s.diags[i].Pos), fset.Position(s.diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return s.diags[i].Analyzer < s.diags[j].Analyzer
	})
	return s.diags, nil
}

// collectAllows parses the //simlint:allow directives of one package.
func (s *Suite) collectAllows(pkg *Package) {
	names := make(map[string]bool, len(s.Analyzers))
	for _, a := range s.Analyzers {
		names[a.Name] = true
	}
	for _, file := range pkg.Syntax {
		// Map comment groups used as function documentation to the
		// function's line span, so a doc-comment allow covers the body.
		funcSpan := make(map[*ast.CommentGroup][2]int)
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcSpan[fd.Doc] = [2]int{
					s.fset.Position(fd.Pos()).Line,
					s.fset.Position(fd.End()).Line,
				}
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, wholeFile := strings.CutPrefix(c.Text, "//simlint:allow-file")
				if !wholeFile {
					var isAllow bool
					text, isAllow = strings.CutPrefix(c.Text, "//simlint:allow")
					if !isAllow {
						continue
					}
				}
				pos := s.fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					s.reportRaw(Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "simlint",
						Message:  "malformed simlint:allow directive: want //simlint:allow <analyzer> <reason>",
					})
					continue
				}
				if !names[fields[0]] {
					s.reportRaw(Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "simlint",
						Message:  fmt.Sprintf("simlint:allow names unknown analyzer %q", fields[0]),
					})
					continue
				}
				d := allowDirective{
					file:      pos.Filename,
					analyzer:  fields[0],
					wholeFile: wholeFile,
					fromLine:  pos.Line,
					toLine:    pos.Line + 1,
				}
				if span, ok := funcSpan[cg]; ok {
					d.fromLine, d.toLine = span[0], span[1]
				}
				s.allows = append(s.allows, d)
			}
		}
	}
}

// report records a diagnostic unless an allow directive suppresses it or
// an identical diagnostic was already recorded (a section nested in
// another is checked as part of both).
func (s *Suite) report(d Diagnostic) {
	pos := s.fset.Position(d.Pos)
	for _, a := range s.allows {
		if a.analyzer != d.Analyzer || a.file != pos.Filename {
			continue
		}
		if a.wholeFile || (pos.Line >= a.fromLine && pos.Line <= a.toLine) {
			s.Suppressed++
			return
		}
	}
	s.reportRaw(d)
}

func (s *Suite) reportRaw(d Diagnostic) {
	key := fmt.Sprintf("%s|%d|%s", d.Analyzer, d.Pos, d.Message)
	if s.seen[key] {
		return
	}
	s.seen[key] = true
	s.diags = append(s.diags, d)
}
