package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// World accumulates cross-package knowledge as packages are added in
// dependency order: annotation bindings, function bodies for
// inter-procedural summaries. The nblb-vet
// driver adds every repro package before running analyzers, so
// summaries and annotations span the whole module.
type World struct {
	Fset *token.FileSet

	// locks binds a struct-field key ("pkg.Type.Field") or package-level
	// var key ("pkg.Var") to a registry lock name.
	locks map[string]string
	// funcTags holds nblb: tags on functions (blocking-io, commit-entry,
	// acquires-pin, releases-pin), keyed by function key.
	funcTags map[string]map[string]bool
	// carriers holds types tagged nblb:carries-pin, keyed by type key.
	carriers map[string]bool
	// funcs holds every function declaration seen, for summaries.
	funcs map[string]*funcDecl

	// summaries memoizes per-function lock/IO effects (see summary.go).
	summaries map[string]*funcSummary
}

// funcDecl pairs a function's AST with its package's type info, so
// summaries can be computed lazily for any package in the world.
type funcDecl struct {
	decl *ast.FuncDecl
	info *types.Info
	pkg  *types.Package
}

// NewWorld returns an empty world; everything it comes to know is
// scanned from source annotations (AddPackage).
func NewWorld(fset *token.FileSet) *World {
	return &World{
		Fset:      fset,
		locks:     map[string]string{},
		funcTags:  map[string]map[string]bool{},
		carriers:  map[string]bool{},
		funcs:     map[string]*funcDecl{},
		summaries: map[string]*funcSummary{},
	}
}

// AddPackage scans one type-checked package's annotations and function
// bodies into the world. Call in dependency order, before running
// analyzers on the package.
func (w *World) AddPackage(pkg *types.Package, info *types.Info, files []*ast.File) {
	for _, f := range files {
		w.scanFile(pkg, info, f)
	}
}

func (w *World) scanFile(pkg *types.Package, info *types.Info, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			key := funcKeyOf(pkg, d, info)
			if key == "" {
				continue
			}
			w.funcs[key] = &funcDecl{decl: d, info: info, pkg: pkg}
			for _, tag := range nblbTags(d.Doc) {
				w.addFuncTag(key, tag)
			}
		case *ast.GenDecl:
			w.scanGenDecl(pkg, d)
		}
	}
}

func (w *World) scanGenDecl(pkg *types.Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			doc := s.Doc
			if doc == nil && len(d.Specs) == 1 {
				doc = d.Doc
			}
			typeKey := pkg.Path() + "." + s.Name.Name
			for _, tag := range nblbTags(doc, s.Comment) {
				if f := strings.Fields(tag); len(f) > 0 && f[0] == "carries-pin" {
					w.carriers[typeKey] = true
				}
			}
			switch st := s.Type.(type) {
			case *ast.StructType:
				w.scanStructFields(typeKey, st)
			case *ast.InterfaceType:
				// Function tags on interface methods bind what a call
				// through the interface resolves to.
				for _, m := range st.Methods.List {
					for _, tag := range nblbTags(m.Doc, m.Comment) {
						for _, id := range m.Names {
							w.addFuncTag(typeKey+"."+id.Name, tag)
						}
					}
				}
			}
		case *ast.ValueSpec:
			// Package-level mutex vars: // nblb:lock <name>.
			for _, tag := range nblbTags(s.Doc, s.Comment) {
				if name, ok := strings.CutPrefix(tag, "lock "); ok {
					for _, id := range s.Names {
						w.locks[pkg.Path()+"."+id.Name] = strings.TrimSpace(name)
					}
				}
			}
		}
	}
}

func (w *World) scanStructFields(typeKey string, st *ast.StructType) {
	for _, field := range st.Fields.List {
		for _, tag := range nblbTags(field.Doc, field.Comment) {
			name, ok := strings.CutPrefix(tag, "lock ")
			if !ok {
				continue
			}
			name = strings.TrimSpace(name)
			if len(field.Names) == 0 {
				// Embedded mutex: bind under the embedded type's name.
				if id := embeddedFieldName(field.Type); id != "" {
					w.locks[typeKey+"."+id] = name
				}
				continue
			}
			for _, id := range field.Names {
				w.locks[typeKey+"."+id.Name] = name
			}
		}
	}
}

func embeddedFieldName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.StarExpr:
		return embeddedFieldName(t.X)
	}
	return ""
}

// addFuncTag records a tag, normalizing the known no-argument forms.
// Only the first token matters — prose after the tag ("nblb:commit-entry
// — why") is for the human reader.
func (w *World) addFuncTag(key, tag string) {
	if f := strings.Fields(tag); len(f) > 0 {
		tag = f[0]
	}
	switch tag {
	case "blocking-io", "commit-entry", "acquires-pin", "releases-pin":
		if w.funcTags[key] == nil {
			w.funcTags[key] = map[string]bool{}
		}
		w.funcTags[key][tag] = true
	}
}

// FuncHasTag reports whether the function key carries the tag.
func (w *World) FuncHasTag(key, tag string) bool {
	return w.funcTags[key][tag]
}

// LockName resolves a field/var key to its annotated lock name.
func (w *World) LockName(key string) (string, bool) {
	n, ok := w.locks[key]
	return n, ok
}

// IsCarrier reports whether the type key is tagged nblb:carries-pin.
func (w *World) IsCarrier(typeKey string) bool {
	return w.carriers[typeKey]
}

// nblbTags extracts "nblb:<tag...>" directives from comment groups.
func nblbTags(groups ...*ast.CommentGroup) []string {
	var out []string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := c.Text
			for {
				i := strings.Index(text, "nblb:")
				if i < 0 {
					break
				}
				rest := text[i+len("nblb:"):]
				if j := strings.IndexAny(rest, "\n"); j >= 0 {
					rest = rest[:j]
				}
				out = append(out, strings.TrimSpace(strings.TrimSuffix(rest, "*/")))
				text = text[i+len("nblb:"):]
			}
		}
	}
	return out
}

// --- object keys -----------------------------------------------------
//
// Keys are stable strings ("pkgpath.Type.Member" / "pkgpath.Func") so
// annotations and summaries survive across separately type-checked
// universes (the real module vs analysistest fixtures).

// funcKeyOf computes the key for a function declaration.
func funcKeyOf(pkg *types.Package, d *ast.FuncDecl, info *types.Info) string {
	if d.Name == nil {
		return ""
	}
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return pkg.Path() + "." + d.Name.Name
	}
	recv := recvTypeName(d.Recv.List[0].Type)
	if recv == "" {
		return ""
	}
	return pkg.Path() + "." + recv + "." + d.Name.Name
}

func recvTypeName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

// FuncKey computes the key for a resolved function/method object.
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	recv := namedTypeName(sig.Recv().Type())
	if recv == "" {
		return ""
	}
	return fn.Pkg().Path() + "." + recv + "." + fn.Name()
}

// FieldKey computes the key for a struct field selection: the named
// type that declares (or embeds a path to) the field, dot the field.
func FieldKey(recvType types.Type, field *types.Var) string {
	name := namedTypeName(recvType)
	if name == "" || field.Pkg() == nil {
		return ""
	}
	return field.Pkg().Path() + "." + name + "." + field.Name()
}

// TypeKey returns "pkgpath.Name" for a (possibly pointer-wrapped) named
// type, or "" for everything else.
func TypeKey(t types.Type) string {
	name := namedTypeName(t)
	if name == "" {
		return ""
	}
	n, _ := derefNamed(t)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + name
}

func namedTypeName(t types.Type) string {
	n, _ := derefNamed(t)
	if n == nil {
		return ""
	}
	return n.Obj().Name()
}

func derefNamed(t types.Type) (*types.Named, bool) {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt, true
		case *types.Alias:
			t = types.Unalias(tt)
		default:
			return nil, false
		}
	}
}
