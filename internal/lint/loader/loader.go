// Package loader type-checks Go packages for the strata-lint analyzers
// using only the standard library.
//
// Package discovery shells out to `go list -json` (the one authoritative
// source of build metadata that works in module mode), module-local packages
// are parsed and type-checked from source in dependency order, and anything
// outside the module under analysis — in this repository that is only the
// standard library — is resolved through the source importer, which compiles
// type information straight from GOROOT and therefore works offline.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one type-checked, module-local package.
type Package struct {
	Path  string // import path
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Matched is true when the package was selected by the load patterns
	// themselves; false when it was pulled in only as a dependency of a
	// matched package, type-checked so its importers' types resolve but
	// never analyzed.
	Matched bool

	// TypeErrors collects soft type-check errors. Packages with errors
	// still carry partial type information.
	TypeErrors []error
}

// The fileset and the stdlib importer are process-global so repeated Load
// calls (one per analysistest testdata module) share the type-checked
// standard library instead of re-checking sync/context/os from source each
// time.
var (
	fset = token.NewFileSet()

	stdImpOnce sync.Once
	stdImp     types.Importer
	stdMu      sync.Mutex
)

func stdImporter() types.Importer {
	stdImpOnce.Do(func() {
		stdImp = importer.ForCompiler(fset, "source", nil)
	})
	return stdImp
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool // part of the standard library
	DepOnly    bool // reached only as a dependency of a matched pattern
	Error      *struct{ Err string }
}

// Load discovers the packages matching patterns relative to dir — plus
// their module-local dependencies, so imported types resolve — parses
// them, and type-checks them in dependency order (a package always appears after all
// of its module-local imports in the returned slice). Dependency-only
// packages carry Matched == false. The returned FileSet is shared by all
// loads in the process.
func Load(dir string, patterns ...string) (*token.FileSet, []*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, nil, err
	}

	byPath := make(map[string]*listPackage, len(metas))
	for _, m := range metas {
		byPath[m.ImportPath] = m
	}

	// Topological order over the module-local import graph so every local
	// dependency is checked before its importers.
	var order []*listPackage
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(m *listPackage) error
	visit = func(m *listPackage) error {
		switch state[m.ImportPath] {
		case 1:
			return fmt.Errorf("lint/loader: import cycle through %s", m.ImportPath)
		case 2:
			return nil
		}
		state[m.ImportPath] = 1
		for _, imp := range m.Imports {
			if dep, ok := byPath[imp]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[m.ImportPath] = 2
		order = append(order, m)
		return nil
	}
	sorted := make([]*listPackage, len(metas))
	copy(sorted, metas)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	for _, m := range sorted {
		if err := visit(m); err != nil {
			return nil, nil, err
		}
	}

	local := make(map[string]*types.Package, len(order))
	imp := &moduleImporter{local: local}
	var pkgs []*Package

	// The source importer mutates shared caches and the global fileset;
	// serialize whole-graph checking (Load is rarely called concurrently,
	// but linttest runs under `go test -parallel`).
	stdMu.Lock()
	defer stdMu.Unlock()

	for _, m := range order {
		pkg, err := checkOne(m, imp)
		if err != nil {
			return nil, nil, err
		}
		pkg.Matched = !m.DepOnly
		local[m.ImportPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return fset, pkgs, nil
}

func checkOne(m *listPackage, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(m.GoFiles))
	for _, name := range m.GoFiles {
		path := filepath.Join(m.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint/loader: parse %s: %w", path, err)
		}
		files = append(files, f)
	}
	pkg := &Package{Path: m.ImportPath, Files: files}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	// Checker errors are collected through conf.Error; the returned error
	// only duplicates the first one, and partial packages are still useful.
	tpkg, _ := conf.Check(m.ImportPath, fset, files, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}

// moduleImporter resolves module-local packages from the current load and
// everything else (the standard library) through the source importer.
type moduleImporter struct {
	local map[string]*types.Package
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := mi.local[path]; ok && p != nil {
		return p, nil
	}
	return stdImporter().Import(path)
}

func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-e", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOWORK=off", "GOFLAGS=")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint/loader: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var metas []*listPackage
	for {
		var m listPackage
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint/loader: decode go list output: %w", err)
		}
		if m.Standard {
			continue // the stdlib resolves through the source importer
		}
		if m.Error != nil {
			return nil, fmt.Errorf("lint/loader: %s: %s", m.ImportPath, m.Error.Err)
		}
		if len(m.GoFiles) == 0 {
			continue // nothing to analyze (e.g. test-only package)
		}
		metas = append(metas, &m)
	}
	return metas, nil
}
