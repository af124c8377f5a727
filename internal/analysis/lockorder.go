package analysis

import (
	"go/ast"
	"go/token"
)

// LockOrder reports acquisition edges that invert the documented
// lock-ordering rules (LockRules; ARCHITECTURE.md "Locks, latches, and
// their order"). It simulates each function's held set and checks both
// direct acquisitions and — through per-function summaries — every
// statically resolved call that may acquire a lock deeper in the call
// graph. PR 9's 3-way deadlock (Table.Apply holding the commitGate
// while rawStampTS took txnMu, against Txn.Commit's txnMu→commitGate)
// is exactly the shape this catches; see
// testdata/src/lockorder_pr9/regression.go.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "detect lock acquisitions that invert a documented ordering rule",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFuncLockOrder(pass, fn)
		}
	}
	return nil
}

func checkFuncLockOrder(pass *Pass, fn *ast.FuncDecl) {
	hooks := simHooks{
		acquire: func(name string, pos token.Pos, h *heldSet) {
			for heldName, stack := range h.m {
				why, bad := OrderViolation(heldName, name)
				if !bad {
					continue
				}
				pass.Reportf(pos,
					"acquires %q while holding %q (acquired at %s): inverts documented lock order (%s)",
					name, heldName, pass.Fset.Position(stack[len(stack)-1]), why)
			}
		},
		call: func(callee string, pos token.Pos, h *heldSet) {
			if h.empty() {
				return
			}
			sum := pass.World.Summary(callee)
			for name, eff := range sum.mayAcquire {
				for heldName, stack := range h.m {
					why, bad := OrderViolation(heldName, name)
					if !bad {
						continue
					}
					via := shortFuncName(callee)
					if p := describePath(eff.path); p != "" {
						via += " → " + p
					}
					pass.Reportf(pos,
						"call may acquire %q (via %s) while holding %q (acquired at %s): inverts documented lock order (%s)",
						name, via, heldName, pass.Fset.Position(stack[len(stack)-1]), why)
				}
			}
		},
	}
	simFunc(pass.Info, pass.World, fn.Body, hooks)
}
