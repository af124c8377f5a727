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
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
)

// LoadedPackage is one source-analyzed package: syntax, types, and the
// shared file set live in the Loader that produced it.
type LoadedPackage struct {
	Path  string
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Main: the package belongs to the module under analysis, not to one
	// it reaches through a replace directive.
	Main bool
	// Ref: the package is checked only for the uses it makes of the
	// others (deadexport): a test variant, or a nested module's package.
	// No analyzer runs on it.
	Ref bool
}

// Loader turns `go list` package metadata into type-checked syntax
// trees using only the standard library: packages of the module under
// analysis are parsed and checked from source (so analyzers see
// annotations and function bodies), while everything else — the
// standard library, should dependencies ever appear — is imported from
// the compiler's export data as surfaced by `go list -export`.
//
// Test variants are checked as `go list -test` reports them: a
// package's in-package tests with its own files ("p [p.test]"), its
// external tests as p_test, and each resolves its imports through its
// ImportMap. So are the packages of the modules nested under Dir (the
// benchmark module), whose imports of this module resolve to the
// packages already checked.
type Loader struct {
	Fset *token.FileSet
	Dir  string // working directory for go list (module root)

	sources map[string]*listPackage // package ID → go list record
	parsed  map[string]*ast.File    // file name → syntax, shared by a package and its test variant

	mu     sync.Mutex
	loaded map[string]*LoadedPackage // package ID → checked package; mu

	gcMu        sync.Mutex        // the gc importer is not safe for concurrent use
	exportFiles map[string]string // import path → export data file; gcMu once checks start
	gcImporter  types.ImporterFrom
}

type listPackage struct {
	ImportPath string // the package ID: "p [p.test]" for a test variant
	Dir        string
	Export     string
	Standard   bool
	ForTest    string
	GoFiles    []string
	Imports    []string
	ImportMap  map[string]string
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }

	ref bool
}

// NewLoader creates a loader rooted at dir (the module root).
func NewLoader(dir string) *Loader {
	l := &Loader{
		Fset:        token.NewFileSet(),
		Dir:         dir,
		exportFiles: map[string]string{},
		sources:     map[string]*listPackage{},
		loaded:      map[string]*LoadedPackage{},
		parsed:      map[string]*ast.File{},
	}
	l.gcImporter = importer.ForCompiler(l.Fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l
}

// Load resolves the patterns (e.g. "./...") and returns the matched
// module packages type-checked from source, with their test variants,
// the nested modules' packages and the module's unmatched ones (Ref),
// in dependency order.
func (l *Loader) Load(patterns ...string) ([]*LoadedPackage, error) {
	// The rest of the tree only supplies uses (Ref): every nested module,
	// and the rest of this one when the patterns name less of it.
	refDirs, err := l.nestedModules()
	if err != nil {
		return nil, err
	}
	if !slices.Equal(patterns, []string{"./..."}) {
		refDirs = append(refDirs, l.Dir)
	}
	// The listings run at once; their packages are recorded in order, so
	// a package two listings report keeps the first one's record.
	lists := make([][]*listPackage, 1+len(refDirs))
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for i := range lists {
		dir, pats := l.Dir, patterns
		if i > 0 {
			dir, pats = refDirs[i-1], []string{"./..."}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lists[i], errs[i] = l.goList(dir, true, pats)
		}()
	}
	wg.Wait()
	var ids []string
	for i, pkgs := range lists {
		if errs[i] != nil {
			return nil, errs[i]
		}
		more, err := l.listSources(pkgs, i > 0)
		if err != nil {
			return nil, err
		}
		ids = append(ids, more...)
	}
	sort.Strings(ids)
	if err := l.checkAll(ids); err != nil {
		return nil, err
	}
	out := make([]*LoadedPackage, len(ids))
	for i, id := range ids {
		out[i] = l.loaded[id]
	}
	// Dependency order: a package sorts after everything it imports.
	sort.SliceStable(out, func(i, j int) bool { return l.depRank(out[i].Path) < l.depRank(out[j].Path) })
	return out, nil
}

// listSources records the export data and the module packages not seen
// before of one go list -test run; it returns the packages' IDs. A test
// main ("p.test") is generated code and is left out.
func (l *Loader) listSources(pkgs []*listPackage, ref bool) ([]string, error) {
	l.recordExports(pkgs)
	var ids []string
	for _, p := range pkgs {
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Standard || p.Module == nil || l.sources[p.ImportPath] != nil || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		p.ref = ref || p.ForTest != ""
		l.sources[p.ImportPath] = p
		ids = append(ids, p.ImportPath)
	}
	return ids, nil
}

// nestedModules returns the directories under Dir that hold a module of
// their own. testdata, vendor and dot or underscore directories are
// skipped, as the go tool skips them.
func (l *Loader) nestedModules() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.Dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != l.Dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if name == "go.mod" && filepath.Dir(path) != l.Dir {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs, err
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

// checkAll parses the packages ids name, then type-checks each once
// the module packages it imports are checked, at most GOMAXPROCS at a
// time. On failure it returns the error of the first failed package in
// ids order; packages importing a failed one are not checked.
func (l *Loader) checkAll(ids []string) error {
	files := map[string][]*ast.File{}
	waits := map[string]int{}      // id → imports not yet checked
	users := map[string][]string{} // id → the ids importing it
	var ready []string
	for _, id := range ids {
		src := l.sources[id]
		for _, name := range src.GoFiles {
			f, err := l.parse(filepath.Join(src.Dir, name))
			if err != nil {
				return err
			}
			files[id] = append(files[id], f)
		}
		for _, imp := range src.Imports {
			if _, isSrc := l.sources[imp]; isSrc {
				waits[id]++
				users[imp] = append(users[imp], id)
			}
		}
		if waits[id] == 0 {
			ready = append(ready, id)
		}
	}
	type result struct {
		id  string
		err error
	}
	results := make(chan result)
	failed := map[string]error{}
	checked, running, workers := 0, 0, runtime.GOMAXPROCS(0)
	for len(ready) > 0 || running > 0 {
		for ; len(ready) > 0 && running < workers; running++ {
			id := ready[0]
			ready = ready[1:]
			go func() {
				src := l.sources[id]
				path, _, _ := strings.Cut(id, " [")
				lp, err := l.check(id, path, src.Dir, files[id], src.ImportMap)
				if err == nil {
					lp.Main, lp.Ref = src.Module.Main, src.ref
				}
				results <- result{id, err}
			}()
		}
		r := <-results
		running--
		if r.err != nil {
			failed[r.id] = r.err
			continue
		}
		checked++
		for _, u := range users[r.id] {
			if waits[u]--; waits[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	for _, id := range ids {
		if err := failed[id]; err != nil {
			return err
		}
	}
	if checked < len(ids) {
		return fmt.Errorf("analysis: import cycle among %d packages", len(ids)-checked)
	}
	return nil
}

// parse parses a file once; a test variant shares its package's syntax.
func (l *Loader) parse(name string) (*ast.File, error) {
	if f, ok := l.parsed[name]; ok {
		return f, nil
	}
	f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	l.parsed[name] = f
	return f, nil
}

// check type-checks a parsed file set as the package at path, resolving
// its imports through importMap, and registers it under id for import
// by later packages.
func (l *Loader) check(id, path, dir string, files []*ast.File, importMap map[string]string) (*LoadedPackage, error) {
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
		if mapped, ok := importMap[p]; ok {
			p = mapped
		}
		return l.importPkg(p, dir)
	})}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", id, err)
	}
	lp := &LoadedPackage{Path: path, Dir: dir, Files: files, Pkg: pkg, Info: info}
	l.mu.Lock()
	l.loaded[id] = lp
	l.mu.Unlock()
	return lp, nil
}

// importPkg resolves an import: a module package from its checked
// source, anything else from export data.
func (l *Loader) importPkg(path, fromDir string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l.mu.Lock()
	lp, ok := l.loaded[path]
	l.mu.Unlock()
	if ok {
		return lp.Pkg, nil
	}
	if _, isSrc := l.sources[path]; isSrc {
		return nil, fmt.Errorf("analysis: %q imported before it was checked", path)
	}
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.gcImporter.ImportFrom(path, fromDir, 0)
}

// lookupExport feeds the stdlib gc importer from `go list -export`
// build-cache artifacts, resolving lazily for packages first seen as
// transitive imports.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	file, ok := l.exportFiles[path]
	if !ok {
		pkgs, err := l.goList(l.Dir, false, []string{path})
		if err != nil {
			return nil, err
		}
		l.recordExports(pkgs)
		if file, ok = l.exportFiles[path]; !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
	}
	return os.Open(file)
}

// goList runs `go list -export -json -deps` in dir, with -test if test
// is set.
func (l *Loader) goList(dir string, test bool, patterns []string) ([]*listPackage, error) {
	args := []string{
		"list", "-e", "-export",
		"-json=ImportPath,Dir,Export,Standard,ForTest,GoFiles,Imports,ImportMap,Module,Error",
		"-deps",
	}
	if test {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Dir = dir
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
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// recordExports records the export data files a go list run reports.
func (l *Loader) recordExports(pkgs []*listPackage) {
	for _, p := range pkgs {
		if p.Export != "" {
			l.exportFiles[p.ImportPath] = p.Export
		}
	}
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
