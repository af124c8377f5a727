// Package analysis is nblb's static-analysis suite: a small, stdlib-only
// framework in the shape of golang.org/x/tools/go/analysis (which this
// repo deliberately does not depend on) plus the four engine-specific
// analyzers behind cmd/nblb-vet:
//
//   - lockorder:  acquisition edges must not invert the documented
//     lock-ordering rules (ARCHITECTURE.md "Locks, latches, and their
//     order"; Registry below is the machine-readable form).
//   - pinleak:    every buffer-pool pin and frame latch taken in a
//     function must be released on every path out of it, unless it
//     escapes via a documented carrier type.
//   - walseam:    blocking I/O must not happen inside the commitGate
//     critical section except through approved commit/checkpoint entry
//     points, and wal.TestPoint names must be covered by the crash
//     matrix.
//   - deadexport: a name under internal/ needs a use outside its own
//     package's tests, counted through go/types in every loaded file
//     (tests and the nested benchmark module included).
//
// Analyzers read intent from machine-checkable source annotations:
//
//	// nblb:lock <name>        on a mutex/latch struct field — binds the
//	//                         field to a registry lock name
//	// nblb:carries-pin        on a type whose values legitimately carry
//	//                         a pinned frame or held latch out of the
//	//                         acquiring function (Cursor, crabbing path)
//	// nblb:acquires-pin       on a function returning a pinned resource
//	// nblb:releases-pin       on the matching release function
//	// nblb:blocking-io        on functions that perform file I/O or
//	//                         fsync (wal.Append/Sync/Commit, disk Sync)
//	// nblb:commit-entry       on the approved functions that may reach
//	//                         blocking I/O while the commitGate is held
//
// Diagnostics are suppressed by a //nolint:nblb-<analyzer> comment on
// the flagged line, which MUST carry a reason after " // ":
//
//	b.mu.Lock() //nolint:nblb-lockorder // <why this nesting cannot deadlock>
//
// A reasonless nolint is itself reported. See docs/analysis.md.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check. Run is invoked once per
// package, in dependency order, after the package has been added to the
// World (so annotations and function bodies of the package itself and
// everything it imports are already visible).
type Analyzer struct {
	Name string // diagnostic prefix and nolint key ("nblb-" + Name)
	Doc  string
	Run  func(*Pass) error
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	World    *World

	diags *[]Diagnostic
}

// A Diagnostic is one finding, already attributed to an analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic unless the flagged line carries a valid
// nolint comment for this analyzer. A nolint comment without a reason is
// converted into its own diagnostic, so suppressions stay auditable.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if file := p.fileFor(pos); file != nil {
		switch p.nolintAt(file, position.Line) {
		case nolintOK:
			return
		case nolintNoReason:
			*p.diags = append(*p.diags, Diagnostic{
				Analyzer: p.Analyzer.Name,
				Pos:      position,
				Message:  fmt.Sprintf("nolint:nblb-%s without a reason (append `// <why>`)", p.Analyzer.Name),
			})
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

const (
	nolintNone     = iota // no suppression on the line
	nolintOK              // suppressed, reason given
	nolintNoReason        // suppression attempted without a reason
)

// nolintAt scans the file's comments for a //nolint:nblb-<name> marker
// on the given line and classifies it.
func (p *Pass) nolintAt(file *ast.File, line int) int {
	key := "nblb-" + p.Analyzer.Name
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if p.Fset.Position(c.Pos()).Line != line {
				continue
			}
			text := c.Text
			idx := strings.Index(text, "//nolint:")
			if idx < 0 {
				continue
			}
			rest := text[idx+len("//nolint:"):]
			spec, reason, hasReason := strings.Cut(rest, "//")
			names := strings.Split(strings.TrimSpace(spec), ",")
			matched := false
			for _, n := range names {
				n = strings.TrimSpace(n)
				if n == key || n == "all" {
					matched = true
				}
			}
			if !matched {
				continue
			}
			if !hasReason || strings.TrimSpace(reason) == "" {
				return nolintNoReason
			}
			return nolintOK
		}
	}
	return nolintNone
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// All returns the full suite in the order nblb-vet runs it.
func All() []*Analyzer {
	return []*Analyzer{LockOrder, PinLeak, WALSeam, DeadExport}
}

// ByName resolves a comma-separated analyzer list ("lockorder,pinleak").
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(n)]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
