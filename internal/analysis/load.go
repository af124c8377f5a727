package analysis

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
)

// LoadedPackage is one source-analyzed package: syntax, types, and the
// shared file set live in the Loader that produced it.
type LoadedPackage struct {
	Path  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// Loader turns `go list` package metadata into type-checked syntax
// trees using only the standard library: packages of the module under
// analysis are parsed and checked from source (so analyzers see
// annotations and function bodies), while everything else — the
// standard library, should dependencies ever appear — is imported from
// the compiler's export data as surfaced by `go list -export`.
type Loader struct {
	Fset *token.FileSet
	Dir  string // working directory for go list (module root)

	exportFiles map[string]string         // import path → export data file
	sources     map[string]*listPackage   // import path → go list record
	loaded      map[string]*LoadedPackage // import path → checked package
	gcImporter  types.ImporterFrom
}

type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// NewLoader creates a loader rooted at dir (the module root).
func NewLoader(dir string) *Loader {
	l := &Loader{
		Fset:        token.NewFileSet(),
		Dir:         dir,
		exportFiles: map[string]string{},
		sources:     map[string]*listPackage{},
		loaded:      map[string]*LoadedPackage{},
	}
	l.gcImporter = importer.ForCompiler(l.Fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l
}

// Load resolves the patterns (e.g. "./...") and returns the matched
// module packages type-checked from source, in dependency order.
func (l *Loader) Load(patterns ...string) ([]*LoadedPackage, error) {
	pkgs, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	var roots []string
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Standard || p.Module == nil {
			if p.Export != "" {
				l.exportFiles[p.ImportPath] = p.Export
			}
			continue
		}
		l.sources[p.ImportPath] = p
		roots = append(roots, p.ImportPath)
	}
	sort.Strings(roots)
	var out []*LoadedPackage
	for _, path := range roots {
		lp, err := l.loadSource(path, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	// Dependency order: a package sorts after everything it imports.
	sort.SliceStable(out, func(i, j int) bool { return l.depRank(out[i].Path) < l.depRank(out[j].Path) })
	return out, nil
}

func (l *Loader) depRank(path string) int {
	seen := map[string]bool{}
	var walk func(string) int
	walk = func(p string) int {
		if seen[p] {
			return 0
		}
		seen[p] = true
		src, ok := l.sources[p]
		if !ok {
			return 0
		}
		max := 0
		for _, imp := range src.Imports {
			if d := walk(imp); d > max {
				max = d
			}
		}
		return max + 1
	}
	return walk(path)
}

// loadSource parses and type-checks one module package (and its module
// dependencies, recursively).
func (l *Loader) loadSource(path string, stack []string) (*LoadedPackage, error) {
	if lp, ok := l.loaded[path]; ok {
		return lp, nil
	}
	for _, s := range stack {
		if s == path {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
	}
	src, ok := l.sources[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no source metadata for %q", path)
	}
	stack = append(stack, path)
	for _, imp := range src.Imports {
		if _, isSrc := l.sources[imp]; isSrc {
			if _, err := l.loadSource(imp, stack); err != nil {
				return nil, err
			}
		}
	}
	var files []*ast.File
	for _, name := range src.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(src.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	lp, err := l.check(path, src.Dir, files)
	if err != nil {
		return nil, err
	}
	return lp, nil
}

// check type-checks a parsed file set as the package at importPath and
// registers it for import by later packages.
func (l *Loader) check(importPath, dir string, files []*ast.File) (*LoadedPackage, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		return l.importPkg(p, dir)
	})}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", importPath, err)
	}
	lp := &LoadedPackage{Path: importPath, Dir: dir, Files: files, Pkg: pkg, Info: info}
	l.loaded[importPath] = lp
	return lp, nil
}

// CheckFiles type-checks an ad-hoc file list as importPath — the
// analysistest fixture path (fixture dirs are not go-list-able, they
// live under testdata/).
func (l *Loader) CheckFiles(importPath, dir string, filenames []string) (*LoadedPackage, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.check(importPath, dir, files)
}

func (l *Loader) importPkg(path, fromDir string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if lp, ok := l.loaded[path]; ok {
		return lp.Pkg, nil
	}
	if _, isSrc := l.sources[path]; isSrc {
		lp, err := l.loadSource(path, nil)
		if err != nil {
			return nil, err
		}
		return lp.Pkg, nil
	}
	return l.gcImporter.ImportFrom(path, fromDir, 0)
}

// lookupExport feeds the stdlib gc importer from `go list -export`
// build-cache artifacts, resolving lazily for packages first seen as
// transitive imports.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := l.exportFiles[path]
	if !ok {
		if _, err := l.goList([]string{path}); err != nil {
			return nil, err
		}
		if file, ok = l.exportFiles[path]; !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
	}
	return os.Open(file)
}

// goList runs `go list -export -json -deps` and records every returned
// package's metadata (export files for binary packages, source file
// lists for module packages).
func (l *Loader) goList(patterns []string) ([]*listPackage, error) {
	args := append([]string{
		"list", "-e", "-export",
		"-json=ImportPath,Dir,Export,Standard,GoFiles,Imports,Module,Error",
		"-deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if p.Export != "" {
			l.exportFiles[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
