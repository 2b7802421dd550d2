package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader discovers, parses, and type-checks every package of the module so
// analyzers can reason with full type information. It is deliberately
// stdlib-only: module-internal import paths are resolved against the module
// root directly, and standard-library imports are delegated to the source
// importer (which type-checks $GOROOT/src, so it needs no pre-built export
// data). Test files (*_test.go) and testdata directories are excluded — the
// lint invariants govern shipped simulator code; tests are the layer that
// verifies them.
type Loader struct {
	// ModulePath is the module's import path from go.mod (e.g. "reaper").
	ModulePath string
	// Root is the absolute path of the module root directory.
	Root string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package // keyed by import path; nil while in-flight

	// uses is the index of the whole module that dead-export and
	// test-only-field read, built on first use.
	uses    *useIndex
	usesErr error
}

// NewLoader locates the module root at or above dir and reads the module
// path from go.mod.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modPath,
		Root:       root,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
	}, nil
}

// LoadAll loads every package under the module root (the "./..." pattern).
func (l *Loader) LoadAll() ([]*Package, error) { return l.LoadUnder(".") }

// LoadUnder loads every package in the subtree rooted at rel (a path
// relative to the module root; "." means the whole module).
func (l *Loader) LoadUnder(rel string) ([]*Package, error) {
	start := filepath.Join(l.Root, rel)
	var dirs []string
	err := filepath.WalkDir(start, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != start && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// LoadDir loads (and memoizes) the single package in dir, which must be
// inside the module root.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: %s is outside module root %s", dir, l.Root)
	}
	path := l.ModulePath
	if rel != "." {
		path = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.check(path, abs)
}

// Import resolves an import path for the type checker: module-internal
// paths load from the module tree, everything else falls through to the
// standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		p, err := l.check(path, filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

func (l *Loader) check(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // in-flight marker
	p, err := l.typeCheck(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// typeCheck parses and type-checks the package in dir under the import path
// path, without consulting or updating the memo for path itself.
func (l *Loader) typeCheck(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files, testFiles []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			// Test files are parsed but never type-checked: analyzers do
			// not run on them, but stale-suppression inspects their
			// //lint:ignore directives (which can never fire there). An
			// unparseable test file is the compiler's problem, not ours.
			if f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments); err == nil {
				testFiles = append(testFiles, f)
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}

	return &Package{
		Path:      path,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Pkg:       tpkg,
		Info:      info,
		TestFiles: testFiles,
		loader:    l,
	}, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
