package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// DeadExport flags an exported name that only its own tests use. It
// judges the package-level funcs, types, vars and consts and the
// exported methods declared in the non-test files of the module's
// internal/ packages. A name counts as used when any other file refers
// to it: a non-test file of any loaded package (its own included), or a
// file the World only parsed (World.AddRefFiles) that lies outside the
// declaring package's directory — another package's tests, the nested
// benchmark module. A method also counts as used when:
//
//   - a parsed-only file outside its directory selects a member of that
//     name (without types, the receiver is unknown), or
//   - its type implements an interface that declares it and that the
//     loaded code mentions (sort.Interface, storage.DiskManager, ...):
//     the call goes through the interface.
//
// Names kept for callers outside the repository (the facade's type
// aliases) or for tests by design are listed in exportAllow, each with
// its reason.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc:  "an exported name under internal/ needs a caller outside its own tests",
	Run:  runDeadExport,
}

// exportRefs is everything deadexport knows of the loaded code's uses,
// built once per World.
type exportRefs struct {
	// keys: "pkgpath.Name" and "pkgpath.Type.Method" used somewhere that
	// counts.
	keys map[string]bool
	// methods: member name → directories of parsed-only files that
	// select a member of that name.
	methods map[string]map[string]bool
	// ifaces: method name → the interfaces the loaded code mentions that
	// declare it.
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
		key := exportKey(obj)
		if key == "" || x.keys[key] || exportAllow[key] != "" {
			return
		}
		if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil && (x.selectedOutside(fn.Name(), lp.Dir) || x.viaInterface(fn)) {
			return
		}
		pass.Reportf(id.Pos(), "%s%s is exported but only its own tests use it (delete it, or allowlist it in deadexport_allow.go with a reason)",
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

// exportKey is the key of an exported package-level object or method,
// "" for anything else (locals, fields, unexported names).
func exportKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !obj.Exported() {
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

func (x *exportRefs) selectedOutside(name, dir string) bool {
	for d := range x.methods[name] {
		if d != dir {
			return true
		}
	}
	return false
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
// type-checked file's resolved identifiers, every parsed-only file's
// selectors, and the interfaces the type-checked code mentions.
func (w *World) exportIndex() *exportRefs {
	if w.exports != nil {
		return w.exports
	}
	x := &exportRefs{keys: map[string]bool{}, methods: map[string]map[string]bool{}, ifaces: map[string][]*types.Interface{}}
	seen := map[types.Type]bool{}
	for _, lp := range w.pkgs {
		for _, f := range lp.Files {
			x.scanTyped(lp.Info, f)
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
	for _, f := range w.refFiles {
		x.scanParsed(w, f)
	}
	w.exports = x
	return x
}

// scanTyped records the uses in one type-checked file. A method's
// receiver naming its own type, and a function's body naming the
// function itself, are not uses from elsewhere.
func (x *exportRefs) scanTyped(info *types.Info, f *ast.File) {
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
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && obj != self {
					if key := exportKey(obj); key != "" {
						x.keys[key] = true
					}
				}
			}
			return true
		})
	}
}

// scanParsed records the uses in one file the World has only parsed:
// pkg.Name through its imports, any other x.Name by member name. What
// the file imports from its own directory (an external test package's
// import of the package under test) does not count.
func (x *exportRefs) scanParsed(w *World, f *ast.File) {
	dir := filepath.Dir(w.Fset.File(f.Pos()).Name())
	imports := map[string]string{} // local name → import path
	var dots []string
	for _, spec := range f.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		lp := w.pkgs[path]
		if lp != nil && lp.Dir == dir {
			continue
		}
		name := path[strings.LastIndex(path, "/")+1:]
		if lp != nil {
			name = lp.Pkg.Name()
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		switch name {
		case "_":
		case ".":
			dots = append(dots, path)
		default:
			imports[name] = path
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[id.Name]; ok {
					x.keys[path+"."+n.Sel.Name] = true
					return false
				}
			}
			if x.methods[n.Sel.Name] == nil {
				x.methods[n.Sel.Name] = map[string]bool{}
			}
			x.methods[n.Sel.Name][dir] = true
		case *ast.Ident:
			for _, path := range dots {
				x.keys[path+"."+n.Name] = true
			}
		}
		return true
	})
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
