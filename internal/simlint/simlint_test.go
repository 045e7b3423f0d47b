package simlint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// quotedRe extracts the quoted regexp operands of a // want comment.
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type wantEntry struct {
	re      *regexp.Regexp
	matched bool
}

// runFixture loads the given packages from testdata/src, runs the full
// suite, and compares the diagnostics against the fixtures' // want
// comments (same file, same line, message matching the quoted regexp).
func runFixture(t *testing.T, patterns ...string) *Suite {
	t.Helper()
	fset, pkgs, err := Load(filepath.Join("testdata", "src"), patterns)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	suite := NewSuite()
	diags, err := suite.Run(fset, pkgs)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}

	wants := make(map[string][]*wantEntry)
	for _, pkg := range pkgs {
		if !pkg.Root {
			continue
		}
		for _, file := range pkg.Syntax {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					pos := fset.Position(c.Pos())
					for _, q := range quotedRe.FindAllString(c.Text[idx+len("// want "):], -1) {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want operand %s: %v", pos, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						wants[key] = append(wants[key], &wantEntry{re: re})
					}
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", pos.Filename, pos.Line, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matching %q", key, w.re)
			}
		}
	}
	return suite
}

func TestDeterminismFixture(t *testing.T) {
	suite := runFixture(t, "hrwle/internal/locks")
	if suite.Suppressed == 0 {
		t.Errorf("expected the //simlint:allow case to be counted as suppressed")
	}
}

func TestAbortFlowFixture(t *testing.T) {
	suite := runFixture(t, "hrwle/abortfix")
	if suite.Suppressed == 0 {
		t.Errorf("expected the //simlint:allow case to be counted as suppressed")
	}
}

func TestTxDisciplineFixture(t *testing.T) {
	suite := runFixture(t, "hrwle/txfix")
	if suite.Suppressed == 0 {
		t.Errorf("expected the //simlint:allow case to be counted as suppressed")
	}
}

// TestDirectiveValidation checks that malformed or unknown //simlint:allow
// directives are themselves diagnosed.
func TestDirectiveValidation(t *testing.T) {
	fset, pkgs, err := Load(filepath.Join("testdata", "src"), []string{"hrwle/badallow"})
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	suite := NewSuite()
	diags, err := suite.Run(fset, pkgs)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	var malformed, unknown bool
	for _, d := range diags {
		if d.Analyzer != "simlint" {
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d.Message)
			continue
		}
		switch {
		case strings.Contains(d.Message, "malformed"):
			malformed = true
		case strings.Contains(d.Message, "unknown analyzer"):
			unknown = true
		}
	}
	if !malformed {
		t.Errorf("expected a malformed-directive diagnostic")
	}
	if !unknown {
		t.Errorf("expected an unknown-analyzer diagnostic")
	}
}

// TestRepoSelfVet runs the full suite over this repository and requires a
// clean result: the tree must stay vet-clean at all times.
func TestRepoSelfVet(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	fset, pkgs, err := Load(filepath.Join("..", ".."), []string{"./..."})
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	suite := NewSuite()
	diags, err := suite.Run(fset, pkgs)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: [%s] %s", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
