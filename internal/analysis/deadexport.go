package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// DeadExport flags a name that only its own package's tests use, or
// nothing at all. It judges the package-level funcs, types, vars and
// consts and the methods declared in the non-test files of the module's
// internal/ packages, exported or not. Every use it counts is an
// identifier that go/types resolves to the name, in any file the Loader
// type-checked — non-test files, test variants, the nested modules'
// packages — except a _test.go file in the name's own directory (its
// in-package and external tests alike), a method's receiver naming its
// own type, and a function's body naming the function itself. A method
// also counts as used when its type implements an interface that
// declares it and that the analyzed packages mention (sort.Interface,
// storage.DiskManager, ...), or error or fmt.Stringer, which fmt calls
// without the code naming them.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "a name under internal/ needs a use outside its own package's tests",
	Run:  runDeadExport,
}

// exportRefs is everything deadexport knows of the loaded code's uses,
// built once per World.
type exportRefs struct {
	// keys: "pkgpath.Name" and "pkgpath.Type.Method" used somewhere that
	// counts.
	keys map[string]bool
	// ifaces: method name → the interfaces that make a method of that
	// name used (see DeadExport).
	ifaces map[string][]*types.Interface
}

func runDeadExport(pass *Pass) error {
	lp := pass.World.pkgs[pass.Pkg.Path()]
	if lp == nil || !lp.Main || !slices.Contains(strings.Split(lp.Path, "/"), "internal") {
		return nil
	}
	x := pass.World.exportIndex()
	judge := func(id *ast.Ident) {
		obj := pass.Info.Defs[id]
		key := useKey(obj)
		if key == "" || x.keys[key] || id.Name == "init" || id.Name == "_" {
			return
		}
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil && x.viaInterface(fn) {
			return
		}
		pass.Reportf(id.Pos(), "%s%s has no use outside its own package's tests (delete it, or move it into a _test.go file)",
			pass.Pkg.Name(), strings.TrimPrefix(key, lp.Path))
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				judge(d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						judge(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							judge(id)
						}
					}
				}
			}
		}
	}
	return nil
}

// useKey is the key of a package-level object or method, "" for
// anything else (locals, fields).
func useKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		return FuncKey(o.Origin())
	case *types.TypeName, *types.Const, *types.Var:
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}

func (x *exportRefs) viaInterface(fn *types.Func) bool {
	named, _ := derefNamed(fn.Signature().Recv().Type())
	if named == nil {
		return false
	}
	for _, iface := range x.ifaces[fn.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// exportIndex builds, on first use, the uses deadexport counts: every
// type-checked file's resolved identifiers (each file once: a test
// variant repeats its package's files), and the interfaces the analyzed
// packages mention.
func (w *World) exportIndex() *exportRefs {
	if w.exports != nil {
		return w.exports
	}
	x := &exportRefs{keys: map[string]bool{}, ifaces: map[string][]*types.Interface{}}
	stringer := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Typ[types.String])), false))}, nil)
	seen := map[types.Type]bool{}
	x.mention(stringer.Complete(), seen)
	x.mention(types.Universe.Lookup("error").Type(), seen)
	scanned := map[*ast.File]bool{}
	for _, lp := range w.pkgs {
		for _, f := range lp.Files {
			scanned[f] = true
			x.scanTyped(w.Fset, lp.Info, f)
		}
		for _, tv := range lp.Info.Types {
			x.mention(tv.Type, seen)
		}
		for _, obj := range lp.Info.Defs {
			if obj != nil {
				x.mention(obj.Type(), seen)
			}
		}
	}
	for _, lp := range w.refs {
		for _, f := range lp.Files {
			if !scanned[f] {
				scanned[f] = true
				x.scanTyped(w.Fset, lp.Info, f)
			}
		}
	}
	w.exports = x
	return x
}

// scanTyped records the uses in one type-checked file. A use in a test
// file of the name's own directory, a method's receiver naming its own
// type, and a function's body naming the function itself are not uses
// from elsewhere.
func (x *exportRefs) scanTyped(fset *token.FileSet, info *types.Info, f *ast.File) {
	name := fset.File(f.Pos()).Name()
	testDir := ""
	if strings.HasSuffix(name, "_test.go") {
		testDir = filepath.Dir(name)
	}
	for _, decl := range f.Decls {
		var self types.Object
		var recv *ast.FieldList
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self, recv = info.Defs[fd.Name], fd.Recv
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FieldList); ok && fl == recv {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil || obj == self {
				return true
			}
			if key := useKey(obj); key != "" && (testDir == "" || filepath.Dir(fset.Position(obj.Pos()).Filename) != testDir) {
				x.keys[key] = true
			}
			return true
		})
	}
}

// mention records the interfaces t names, however deeply: a parameter
// of a called function, an element of a slice, a field of a struct.
func (x *exportRefs) mention(t types.Type, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		x.mention(t.Underlying(), seen)
	case *types.Alias:
		x.mention(types.Unalias(t), seen)
	case *types.Pointer:
		x.mention(t.Elem(), seen)
	case *types.Slice:
		x.mention(t.Elem(), seen)
	case *types.Array:
		x.mention(t.Elem(), seen)
	case *types.Chan:
		x.mention(t.Elem(), seen)
	case *types.Map:
		x.mention(t.Key(), seen)
		x.mention(t.Elem(), seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				x.mention(tup.At(i).Type(), seen)
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			x.mention(t.Field(i).Type(), seen)
		}
	case *types.Interface:
		if !t.IsMethodSet() {
			return
		}
		for i := 0; i < t.NumMethods(); i++ {
			name := t.Method(i).Name()
			x.ifaces[name] = append(x.ifaces[name], t)
		}
	}
}
