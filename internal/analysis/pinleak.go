package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// PinLeak verifies the buffer-pool pin/latch lifetime contract
// (buffer.Pool invariants 1–2): every pin taken via an
// nblb:acquires-pin function (Pool.Fetch, Pool.NewPage) and every
// frame-latch acquisition must be released on every path out of the
// acquiring function — including early `return err` paths — unless the
// resource escapes through a return value, a call that takes it over,
// or a type annotated nblb:carries-pin (Cursor, the crabbing descent
// path). Escapes into types NOT so annotated are themselves reported:
// a pinned frame parked in an undocumented struct is how quiet leaks
// start.
//
// The analysis is path-sensitive per function with the same branch
// rules as the lock simulator, plus two idiom-specific refinements:
// a `v, err := Fetch()` resource only becomes live on the err == nil
// side of the following error check (on the error side there is no pin
// to release), and a TryLock in an if condition is live only in the
// branch where it succeeded.
var PinLeak = &Analyzer{
	Name: "pinleak",
	Doc:  "detect buffer-pool pins and frame latches not released on every path",
	Run:  runPinLeak,
}

// latchLocks are the lock names pinleak tracks per-instance. Plain
// mutexes are lockorder's department; latches guard pages and pair
// with pins, so their leaks are resource leaks.
var latchLocks = map[string]bool{"frame-latch": true}

func runPinLeak(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			pc := &pinChecker{pass: pass, reported: map[string]bool{}}
			pc.checkBody(fn.Body)
		}
	}
	return nil
}

// resource is one acquisition site (a pin or a latch) in a function.
// aliases, escape, and deferred release are path-independent; liveness
// is tracked per path in pathState.
type resource struct {
	kind    string // "pin" or "frame latch"
	what    string // acquiring call, for diagnostics
	pos     token.Pos
	aliases map[types.Object]bool
	errObj  types.Object // err result to gate liveness on, nil once active
	escaped bool
	deferRe bool // released by a defer: satisfied on every path
}

type status int

const (
	stPending status = iota // acquired, success not yet established
	stLive
	stDone // released (or acquisition failed on this path)
)

type pathState map[*resource]status

func (st pathState) clone() pathState {
	c := make(pathState, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

type pinChecker struct {
	pass      *Pass
	resources []*resource
	reported  map[string]bool
}

// checkBody runs the path walk over one function body, then checks the
// fall-through exit.
func (pc *pinChecker) checkBody(body *ast.BlockStmt) {
	st := pathState{}
	if pc.stmts(body.List, st) {
		pc.leakCheck(st, body.End()-1, "function end")
	}
}

// --- reporting -------------------------------------------------------

func (pc *pinChecker) leakCheck(st pathState, pos token.Pos, where string) {
	for r, s := range st {
		if s == stDone || r.escaped || r.deferRe {
			continue
		}
		key := fmt.Sprintf("%d-%d", r.pos, pos)
		if pc.reported[key] {
			continue
		}
		pc.reported[key] = true
		pc.pass.Reportf(pos,
			"%s leaks the %s acquired at %s (%s): release it on this path or hand it to an nblb:carries-pin carrier",
			where, r.kind, pc.pass.Fset.Position(r.pos), r.what)
	}
}

func (pc *pinChecker) reportNonCarrierStore(r *resource, pos token.Pos, typ string) {
	key := fmt.Sprintf("store-%d-%d", r.pos, pos)
	if pc.reported[key] {
		return
	}
	pc.reported[key] = true
	pc.pass.Reportf(pos,
		"%s acquired at %s escapes into %s, which is not annotated nblb:carries-pin",
		r.kind, pc.pass.Fset.Position(r.pos), typ)
}

// --- statement walk --------------------------------------------------

// stmts returns true if control can fall off the end of the list.
func (pc *pinChecker) stmts(list []ast.Stmt, st pathState) bool {
	for _, s := range list {
		if !pc.stmt(s, st) {
			return false
		}
	}
	return true
}

func (pc *pinChecker) stmt(s ast.Stmt, st pathState) bool {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if isPanic(call) {
				// Panic exits are exempt by contract ("panic-free paths").
				pc.scanExpr(call, st)
				return false
			}
			// A discarded acquires-pin result can never be unpinned.
			if key := calleeKey(pc.pass.Info, call); key != "" && pc.pass.World.FuncHasTag(key, "acquires-pin") {
				pc.pass.Reportf(call.Pos(), "result of %s (nblb:acquires-pin) is discarded — the pin can never be released", shortFuncName(key))
			}
		}
		pc.scanExpr(x.X, st)
	case *ast.AssignStmt:
		pc.assign(x, st)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						pc.scanExpr(v, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		pc.scanExpr(x.X, st)
	case *ast.SendStmt:
		pc.scanExpr(x.Chan, st)
		pc.escapeScan(x.Value, st, false)
		pc.scanExpr(x.Value, st)
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			pc.scanExpr(e, st)
			pc.escapeScan(e, st, true) // returning a resource is a documented handoff
		}
		pc.leakCheck(st, x.Pos(), "return")
		return false
	case *ast.BranchStmt:
		return false
	case *ast.BlockStmt:
		return pc.stmts(x.List, st)
	case *ast.LabeledStmt:
		return pc.stmt(x.Stmt, st)
	case *ast.IfStmt:
		return pc.ifStmt(x, st)
	case *ast.ForStmt:
		if x.Init != nil {
			pc.stmt(x.Init, st)
		}
		if x.Cond != nil {
			pc.scanExpr(x.Cond, st)
		}
		bodySt := st.clone()
		if falls := pc.stmts(x.Body.List, bodySt); falls {
			if x.Post != nil {
				pc.stmt(x.Post, bodySt)
			}
			// Treat the loop as one straight-line iteration: resources
			// acquired in the body stay live after it (crabbing), ones
			// released in it count as released.
			replace(st, bodySt)
		}
		// A `for {}` with no break only exits via return/panic inside
		// the body; control never reaches the statements after it.
		if x.Cond == nil && !bodyHasBreak(x.Body) {
			return false
		}
	case *ast.RangeStmt:
		pc.scanExpr(x.X, st)
		bodySt := st.clone()
		if falls := pc.stmts(x.Body.List, bodySt); falls {
			replace(st, bodySt)
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return pc.switchStmt(s, st)
	case *ast.DeferStmt:
		pc.deferStmt(x.Call, st)
	case *ast.GoStmt:
		for _, a := range x.Call.Args {
			pc.escapeScan(a, st, true)
			pc.scanExpr(a, st)
		}
		if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
			pc.escapeScan(lit, st, true)
			sub := &pinChecker{pass: pc.pass, reported: pc.reported}
			sub.checkBody(lit.Body)
		}
	}
	return true
}

func replace(dst, src pathState) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func (pc *pinChecker) ifStmt(x *ast.IfStmt, st pathState) bool {
	if x.Init != nil {
		pc.stmt(x.Init, st)
	}
	thenSt := st.clone()
	elseSt := st.clone()

	// Error-check refinement: `if err != nil` resolves pending
	// resources gated on that err — failed on the non-nil side, live on
	// the nil side.
	if obj, nonNilBranch := errCheck(pc.pass.Info, x.Cond); obj != nil {
		for _, r := range pc.resources {
			if r.errObj != obj {
				continue
			}
			if nonNilBranch == "then" {
				thenSt[r] = stDone
				elseSt[r] = stLive
				st[r] = stLive
			} else {
				thenSt[r] = stLive
				elseSt[r] = stDone
				st[r] = stDone
			}
			r.errObj = nil
		}
	} else if r, onSuccess := pc.tryAcquireCond(x.Cond, st); r != nil {
		// TryLock refinement: the latch exists only where it succeeded.
		if onSuccess == "then" {
			thenSt[r], elseSt[r] = stLive, stDone
		} else {
			thenSt[r], elseSt[r] = stDone, stLive
		}
	} else {
		pc.scanExpr(x.Cond, st)
	}

	thenFalls := pc.stmts(x.Body.List, thenSt)
	elseFalls := true
	if x.Else != nil {
		elseFalls = pc.stmt(x.Else, elseSt)
	}
	switch {
	case thenFalls && elseFalls:
		merged := mergeStates(thenSt, elseSt)
		replace(st, merged)
	case thenFalls:
		replace(st, thenSt)
	case elseFalls:
		replace(st, elseSt)
	default:
		return false
	}
	return true
}

// mergeStates joins two falling branches: a resource is done only if
// done in both (released on all paths), live otherwise.
func mergeStates(a, b pathState) pathState {
	out := pathState{}
	for r, sa := range a {
		sb, ok := b[r]
		if !ok {
			sb = sa
		}
		if sa == stDone && sb == stDone {
			out[r] = stDone
		} else if sa == stPending && sb == stPending {
			out[r] = stPending
		} else {
			out[r] = stLive
		}
	}
	for r, sb := range b {
		if _, ok := a[r]; !ok {
			out[r] = sb
		}
	}
	return out
}

func (pc *pinChecker) switchStmt(s ast.Stmt, st pathState) bool {
	var body *ast.BlockStmt
	switch x := s.(type) {
	case *ast.SwitchStmt:
		if x.Init != nil {
			pc.stmt(x.Init, st)
		}
		if x.Tag != nil {
			pc.scanExpr(x.Tag, st)
		}
		body = x.Body
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			pc.stmt(x.Init, st)
		}
		body = x.Body
	case *ast.SelectStmt:
		body = x.Body
	}
	var falling []pathState
	hasDefault := false
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				pc.scanExpr(e, st)
			}
			if c.List == nil {
				hasDefault = true
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			stmts = c.Body
		}
		cs := st.clone()
		if pc.stmts(stmts, cs) {
			falling = append(falling, cs)
		}
	}
	if !hasDefault {
		falling = append(falling, st.clone())
	}
	if len(falling) == 0 {
		return false
	}
	merged := falling[0]
	for _, f := range falling[1:] {
		merged = mergeStates(merged, f)
	}
	replace(st, merged)
	return true
}

// --- acquisition, release, escape ------------------------------------

func (pc *pinChecker) assign(x *ast.AssignStmt, st pathState) {
	// v, err := <acquires-pin>(...) — the canonical acquisition shape.
	if len(x.Rhs) == 1 {
		if call, ok := x.Rhs[0].(*ast.CallExpr); ok {
			if key := calleeKey(pc.pass.Info, call); key != "" && pc.pass.World.FuncHasTag(key, "acquires-pin") {
				pc.scanExpr(call, st) // nested calls in args first
				pc.acquirePin(x, call, key, st)
				return
			}
		}
	}
	for _, r := range x.Rhs {
		pc.scanExpr(r, st)
	}
	// Alias propagation and stores.
	for i, lhs := range x.Lhs {
		var rhs ast.Expr
		if len(x.Rhs) == len(x.Lhs) {
			rhs = x.Rhs[i]
		} else if len(x.Rhs) == 1 {
			rhs = x.Rhs[0]
		}
		if rhs == nil {
			continue
		}
		// Re-binding a variable detaches it from whatever it aliased.
		if lobj := identObj(pc.pass.Info, lhs); lobj != nil {
			for _, r := range pc.resources {
				delete(r.aliases, lobj)
			}
			if robj := identObj(pc.pass.Info, rhs); robj != nil {
				// `fr = cfr` carries every resource backed by cfr (pin
				// and latch) over to the new name.
				for _, r := range pc.resources {
					if r.aliases[robj] {
						r.aliases[lobj] = true
					}
				}
			} else {
				pc.escapeScan(rhs, st, true) // e.g. v := []T{...fr...}
			}
			// Assigning over an err gate activates pending resources.
			for _, r := range pc.resources {
				if r.errObj == lobj {
					r.errObj = nil
					if st[r] == stPending {
						st[r] = stLive
					}
				}
			}
			continue
		}
		// Store into a field/index: carrier types are the documented way
		// to carry a pin; anything else is flagged.
		pc.storeScan(lhs, rhs, st)
	}
}

func (pc *pinChecker) acquirePin(x *ast.AssignStmt, call *ast.CallExpr, key string, st pathState) {
	r := &resource{
		kind:    "pin",
		what:    shortFuncName(key),
		pos:     call.Pos(),
		aliases: map[types.Object]bool{},
	}
	if len(x.Lhs) >= 1 {
		if obj := identObj(pc.pass.Info, x.Lhs[0]); obj != nil {
			// Detach previous binding, bind the fresh resource.
			for _, old := range pc.resources {
				delete(old.aliases, obj)
			}
			r.aliases[obj] = true
		} else if isBlank(x.Lhs[0]) {
			pc.pass.Reportf(call.Pos(), "result of %s (nblb:acquires-pin) is discarded — the pin can never be released", r.what)
			return
		} else {
			// Assigned straight into a field: carrier or complaint.
			pc.resources = append(pc.resources, r)
			st[r] = stLive
			pc.storeTarget(x.Lhs[0], r, st)
			return
		}
	}
	if len(x.Lhs) >= 2 {
		if obj := identObj(pc.pass.Info, x.Lhs[1]); obj != nil {
			r.errObj = obj
			for _, old := range pc.resources {
				if old.errObj == obj {
					old.errObj = nil
					if st[old] == stPending {
						st[old] = stLive
					}
				}
			}
		}
	}
	pc.resources = append(pc.resources, r)
	if r.errObj != nil {
		st[r] = stPending
	} else {
		st[r] = stLive
	}
}

// scanExpr walks an expression for call effects: latch acquire/release,
// pin release, handoffs of aliases as call arguments, and closures.
func (pc *pinChecker) scanExpr(e ast.Expr, st pathState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			pc.callEffect(x, st)
			return true
		case *ast.FuncLit:
			pc.closureEffect(x, st)
			return false
		case *ast.CompositeLit:
			pc.compositeEffect(x, st)
			return true
		}
		return true
	})
}

func (pc *pinChecker) callEffect(call *ast.CallExpr, st pathState) {
	// Latch protocol calls.
	if op, name := classifyLockCall(pc.pass.Info, pc.pass.World, call); op != opNone && latchLocks[name] {
		sel := call.Fun.(*ast.SelectorExpr)
		base := rootIdentObj(pc.pass.Info, sel.X)
		switch op {
		case opAcquire:
			r := &resource{kind: "frame latch", what: sel.Sel.Name, pos: call.Pos(), aliases: map[types.Object]bool{}}
			if base != nil {
				r.aliases[base] = true
				pc.resources = append(pc.resources, r)
				st[r] = stLive
			}
			// Latches on untracked bases (fields of long-lived state)
			// are out of scope.
		case opRelease:
			// An Unlock on a base releases every live latch resource on
			// that base: a TryLock-then-upgrade sequence is logically one
			// latch however many acquire sites the path walked.
			pc.releaseAll(base, "frame latch", st)
		case opTry:
			// Handled by tryAcquireCond when used as an if condition;
			// other uses are untracked.
		}
		return
	}
	key := calleeKey(pc.pass.Info, call)
	release := key != "" && pc.pass.World.FuncHasTag(key, "releases-pin")
	for _, a := range call.Args {
		if release {
			if obj := rootIdentObj(pc.pass.Info, a); obj != nil {
				pc.releaseAll(obj, "pin", st)
			}
			continue
		}
		// A pin handed to another function (the frame itself, not one of
		// its sub-fields) is that function's contract now.
		if obj := identObj(pc.pass.Info, a); obj != nil {
			pc.escapeAll(obj)
		}
	}
}

// releaseAll marks every not-yet-done resource of the kind aliased to
// base as released on this path.
func (pc *pinChecker) releaseAll(base types.Object, kind string, st pathState) {
	if base == nil {
		return
	}
	for _, r := range pc.resources {
		if r.kind != kind || !r.aliases[base] {
			continue
		}
		if s, ok := st[r]; ok && s != stDone {
			st[r] = stDone
		}
	}
}

func (pc *pinChecker) closureEffect(lit *ast.FuncLit, st pathState) {
	pc.escapeScan(lit, st, true)
	sub := &pinChecker{pass: pc.pass, reported: pc.reported}
	sub.checkBody(lit.Body)
}

// compositeEffect: a resource inside a composite literal escapes — via
// a carrier type silently, otherwise with a report.
func (pc *pinChecker) compositeEffect(lit *ast.CompositeLit, st pathState) {
	typ := pc.pass.Info.TypeOf(lit)
	if typ == nil {
		return
	}
	carrier := pc.carrierType(typ)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := identObj(pc.pass.Info, id); obj != nil {
				for _, r := range pc.resources {
					if !r.aliases[obj] {
						continue
					}
					if !carrier && !r.escaped {
						pc.reportNonCarrierStore(r, lit.Pos(), typ.String())
					}
					r.escaped = true
				}
			}
		}
		return true
	})
}

// carrierType reports whether t (or its element/pointee) is annotated
// nblb:carries-pin.
func (pc *pinChecker) carrierType(t types.Type) bool {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Array:
			t = tt.Elem()
		default:
			key := TypeKey(t)
			return key != "" && pc.pass.World.IsCarrier(key)
		}
	}
}

// storeScan handles `x.field = alias` / `x[i] = alias`.
func (pc *pinChecker) storeScan(lhs, rhs ast.Expr, st pathState) {
	robj := rootIdentObj(pc.pass.Info, rhs)
	if robj == nil {
		pc.scanExpr(rhs, st)
		return
	}
	for _, r := range pc.resources {
		if r.aliases[robj] {
			pc.storeTarget(lhs, r, st)
		}
	}
}

func (pc *pinChecker) storeTarget(lhs ast.Expr, r *resource, st pathState) {
	var baseType types.Type
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		baseType = pc.pass.Info.TypeOf(l.X)
	case *ast.IndexExpr:
		baseType = pc.pass.Info.TypeOf(l.X)
	case *ast.StarExpr:
		baseType = pc.pass.Info.TypeOf(l.X)
	}
	if baseType != nil && !pc.carrierType(baseType) && !r.escaped {
		pc.reportNonCarrierStore(r, lhs.Pos(), baseType.String())
	}
	r.escaped = true
}

// escapeScan marks every resource referenced inside e as escaped.
// silent escapes (returns, channel sends, goroutine args) never report.
func (pc *pinChecker) escapeScan(e ast.Expr, st pathState, silent bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := identObj(pc.pass.Info, id); obj != nil {
				// A frame variable can back several resources at once
				// (its pin plus its latch); handing off the variable
				// hands off all of them.
				pc.escapeAll(obj)
			}
		}
		return true
	})
	_ = silent
}

// escapeAll marks every resource aliased to obj as escaped.
func (pc *pinChecker) escapeAll(obj types.Object) {
	for _, r := range pc.resources {
		if r.aliases[obj] {
			r.escaped = true
		}
	}
}

// bodyHasBreak reports whether a loop body contains a break binding to
// that loop. Unlabeled breaks inside nested loops/switches/selects bind
// to the inner statement and don't count; labeled breaks to an outer
// loop are approximated away (conservative toward "loop never exits").
func bodyHasBreak(body *ast.BlockStmt) bool {
	found := false
	for _, s := range body.List {
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			switch b := n.(type) {
			case *ast.BranchStmt:
				if b.Tok == token.BREAK {
					found = true
				}
				return false
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.FuncLit:
				return false
			}
			return true
		})
	}
	return found
}

func (pc *pinChecker) deferStmt(call *ast.CallExpr, st pathState) {
	// defer pool.Unpin(fr, …) / defer fr.Latch.Unlock()
	if pc.deferReleaseCall(call) {
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// A deferred closure that releases tracked resources counts as a
		// deferred release; any other reference is a handoff.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				pc.deferReleaseCall(c)
			}
			return true
		})
		pc.escapeScan(lit, st, true)
		return
	}
	pc.scanExpr(call, st)
}

// deferReleaseCall marks resources released by a deferred call (latch
// unlock or releases-pin) as satisfied on every path. Returns whether
// the call was a release.
func (pc *pinChecker) deferReleaseCall(call *ast.CallExpr) bool {
	if op, name := classifyLockCall(pc.pass.Info, pc.pass.World, call); op == opRelease && latchLocks[name] {
		if base := rootIdentObj(pc.pass.Info, call.Fun.(*ast.SelectorExpr).X); base != nil {
			for _, r := range pc.resources {
				if r.kind == "frame latch" && r.aliases[base] {
					r.deferRe = true
				}
			}
		}
		return true
	}
	if key := calleeKey(pc.pass.Info, call); key != "" && pc.pass.World.FuncHasTag(key, "releases-pin") {
		for _, a := range call.Args {
			if obj := rootIdentObj(pc.pass.Info, a); obj != nil {
				for _, r := range pc.resources {
					if r.kind == "pin" && r.aliases[obj] {
						r.deferRe = true
					}
				}
			}
		}
		return true
	}
	return false
}

// tryAcquireCond recognizes `if x.TryLock()` / `if !x.TryLock()` over a
// tracked latch and returns the conditional resource plus the branch
// ("then"/"else") where the acquisition succeeded.
func (pc *pinChecker) tryAcquireCond(cond ast.Expr, st pathState) (*resource, string) {
	branch := "then"
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond = u.X
		branch = "else"
	}
	call, ok := cond.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	op, name := classifyLockCall(pc.pass.Info, pc.pass.World, call)
	if op != opTry || !latchLocks[name] {
		return nil, ""
	}
	base := rootIdentObj(pc.pass.Info, call.Fun.(*ast.SelectorExpr).X)
	if base == nil {
		return nil, ""
	}
	r := &resource{kind: "frame latch", what: "TryLock", pos: call.Pos(), aliases: map[types.Object]bool{base: true}}
	pc.resources = append(pc.resources, r)
	st[r] = stDone // overwritten with stLive in the succeeding branch
	return r, branch
}

// --- small helpers ---------------------------------------------------

func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

func isBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// rootIdentObj walks a selector/index/deref chain to its root
// identifier: `fr` for `fr.Latch.Lock()`, `c` for `c.fr`. Latch
// resources are keyed by this root, which is how an acquire through
// `fr.Latch` and a release through the same variable pair up.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return identObj(info, x)
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// errCheck recognizes `err != nil` / `err == nil` conditions and
// returns the err object plus which branch is the non-nil (failure)
// side.
func errCheck(info *types.Info, cond ast.Expr) (types.Object, string) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.NEQ && b.Op != token.EQL) {
		return nil, ""
	}
	var errSide ast.Expr
	switch {
	case isNil(info, b.Y):
		errSide = b.X
	case isNil(info, b.X):
		errSide = b.Y
	default:
		return nil, ""
	}
	obj := identObj(info, errSide)
	if obj == nil {
		return nil, ""
	}
	if t := obj.Type(); t == nil || !isErrorType(t) {
		return nil, ""
	}
	if b.Op == token.NEQ {
		return obj, "then"
	}
	return obj, "else"
}

func isNil(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := info.Uses[id].(*types.Nil)
	return isNilObj || id.Name == "nil"
}

func isErrorType(t types.Type) bool {
	return t.String() == "error"
}

func isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
