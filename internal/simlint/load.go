package simlint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of the module under
// analysis.
type Package struct {
	PkgPath string

	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// Root marks packages matched by the load patterns, as opposed to
	// module-internal dependencies loaded only to type-check them. Only
	// root packages are analyzed.
	Root bool
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	GoFiles    []string
	Imports    []string
	Error      *struct{ Err string }
}

// Load lists, parses and type-checks the packages matching patterns (plus
// their module-internal dependencies) in the module rooted at dir, in
// dependency order. The standard library is imported from source, so the
// loader works offline and needs no precompiled export data.
func Load(dir string, patterns []string) (*token.FileSet, []*Package, error) {
	listed, err := goList(dir, append([]string{"-deps"}, patterns...))
	if err != nil {
		return nil, nil, err
	}
	roots, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	rootSet := make(map[string]bool, len(roots))
	for _, p := range roots {
		rootSet[p.ImportPath] = true
	}

	byPath := make(map[string]*listedPackage)
	var modulePkgs []*listedPackage
	for _, p := range listed {
		if p.Standard {
			continue
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		byPath[p.ImportPath] = p
		modulePkgs = append(modulePkgs, p)
	}

	order, err := topoSort(modulePkgs, byPath)
	if err != nil {
		return nil, nil, err
	}

	fset := token.NewFileSet()
	// The source importer type-checks standard-library dependencies from
	// GOROOT source on demand; one instance memoizes across packages.
	std := importer.ForCompiler(fset, "source", nil)
	done := make(map[string]*Package, len(order))

	var out []*Package
	for _, lp := range order {
		pkg, err := typecheck(fset, lp, done, std)
		if err != nil {
			return nil, nil, err
		}
		pkg.Root = rootSet[lp.ImportPath]
		done[lp.ImportPath] = pkg
		out = append(out, pkg)
	}
	return fset, out, nil
}

// goList invokes `go list -json` in dir and decodes the package stream.
func goList(dir string, args []string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// topoSort orders module packages so every package appears after all of
// its module-internal imports.
func topoSort(pkgs []*listedPackage, byPath map[string]*listedPackage) ([]*listedPackage, error) {
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	const (
		white = iota
		grey
		black
	)
	state := make(map[string]int, len(pkgs))
	var order []*listedPackage
	var visit func(p *listedPackage) error
	visit = func(p *listedPackage) error {
		switch state[p.ImportPath] {
		case grey:
			return fmt.Errorf("import cycle through %s", p.ImportPath)
		case black:
			return nil
		}
		state[p.ImportPath] = grey
		for _, imp := range p.Imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p.ImportPath] = black
		order = append(order, p)
		return nil
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// typecheck parses and type-checks one listed package. Module-internal
// imports are resolved against done (already-checked packages); everything
// else falls through to the standard-library source importer.
func typecheck(fset *token.FileSet, lp *listedPackage, done map[string]*Package, std types.Importer) (*Package, error) {
	var files []*ast.File
	for _, f := range lp.GoFiles {
		path := filepath.Join(lp.Dir, f)
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, af)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{
		Importer: chainImporter{done: done, std: std},
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(lp.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		PkgPath:   lp.ImportPath,
		Syntax:    files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// chainImporter resolves module-internal import paths from the packages
// already type-checked this run and delegates the rest (the standard
// library) to the source importer.
type chainImporter struct {
	done map[string]*Package
	std  types.Importer
}

func (c chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.done[path]; ok {
		return p.Types, nil
	}
	return c.std.Import(path)
}
