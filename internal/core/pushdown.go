package core

import (
	"fmt"

	"repro/internal/tuple"
)

// CmpOp is a comparison operator for a pushed-down filter.
type CmpOp int

const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	}
	return fmt.Sprintf("CmpOp(%d)", int(op))
}

// Filter is one field comparison. Filters passed to a query are a
// conjunction: a row is served only when every filter matches.
// Comparisons involving NULL (a NULL row value or a NULL filter value)
// never match, including CmpNe — the SQL three-valued convention
// collapsed to boolean.
type Filter struct {
	Field string
	Op    CmpOp
	Value tuple.Value
}

// WithFilter adds pushed-down filters to a query (repeatable;
// conjunction). On an index query, filters over key fields are
// evaluated on decoded key bytes before any cache or heap access, and
// filters over cached fields are evaluated on the cached payload under
// a cache hit — rows rejected there never touch the heap. Filters over
// any other field force a heap fetch for rows that survive the cheaper
// tiers. Rejected rows do not count toward WithLimit.
func WithFilter(filters ...Filter) QueryOption {
	return func(c *queryConfig) { c.filters = append(c.filters, filters...) }
}

// cmpMatch evaluates one comparison. NULL on either side never matches.
func cmpMatch(rowVal tuple.Value, op CmpOp, filterVal tuple.Value) bool {
	if rowVal.Null || filterVal.Null {
		return false
	}
	c := rowVal.Compare(filterVal)
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// boundFilter is a filter resolved against a schema position.
type boundFilter struct {
	pos int // schema position
	op  CmpOp
	val tuple.Value
}

// filterPlan classifies an index query's filters by the cheapest tier
// that can evaluate them: key filters run on decoded key bytes (no IO
// beyond the leaf the cursor already holds), cached filters run on the
// §2.1 cache payload under a hit, and everything else needs the heap
// row. rest holds every non-key filter resolved against schema
// positions so the heap-row fallback can evaluate them uniformly.
type filterPlan struct {
	key    []keyFilter
	cached []cachedFilter
	rest   []boundFilter
	// needsHeap is true when some filter can never be answered from key
	// + cache (a non-key, non-cached field): every surviving row must be
	// fetched.
	needsHeap bool
}

type keyFilter struct {
	src int // index into decoded keyVals
	op  CmpOp
	val tuple.Value
}

type cachedFilter struct {
	ci  int // index into ix.cachedFields
	op  CmpOp
	val tuple.Value
}

// buildFilterPlan resolves and classifies cfg filters for an index
// query. Returns nil when there are no filters.
func (ix *Index) buildFilterPlan(filters []Filter) (*filterPlan, error) {
	if len(filters) == 0 {
		return nil, nil
	}
	fp := &filterPlan{}
	for _, f := range filters {
		if f.Op < CmpEq || f.Op > CmpGe {
			return nil, fmt.Errorf("core: filter on %q: unknown operator %v", f.Field, f.Op)
		}
		pos := ix.table.schema.Index(f.Field)
		if pos < 0 {
			return nil, fmt.Errorf("core: filter field %q not in %s", f.Field, ix.table.schema)
		}
		if want := ix.table.schema.Field(pos).Kind; f.Value.Kind != want {
			return nil, fmt.Errorf("core: filter on %q: value kind %v, want %v", f.Field, f.Value.Kind, want)
		}
		if ki := indexOf(ix.keyFields, pos); ki >= 0 {
			fp.key = append(fp.key, keyFilter{src: ki, op: f.Op, val: f.Value})
			continue
		}
		fp.rest = append(fp.rest, boundFilter{pos: pos, op: f.Op, val: f.Value})
		if ci := indexOf(ix.cachedFields, pos); ci >= 0 {
			fp.cached = append(fp.cached, cachedFilter{ci: ci, op: f.Op, val: f.Value})
		} else {
			fp.needsHeap = true
		}
	}
	return fp, nil
}

// coverable reports whether every filter can be answered without the
// heap — the pushdown precondition for aggregates.
func (fp *filterPlan) coverable() bool {
	return fp == nil || !fp.needsHeap
}

// passKey evaluates the key-tier filters against decoded key values.
func (fp *filterPlan) passKey(keyVals []tuple.Value) bool {
	for _, f := range fp.key {
		if !cmpMatch(keyVals[f.src], f.op, f.val) {
			return false
		}
	}
	return true
}

// passCached evaluates the cached-tier filters against a cache payload.
// ok=false means a payload field failed to decode — the caller must
// fall back to the heap row, where passRow re-evaluates everything.
func (fp *filterPlan) passCached(ix *Index, payload []byte) (pass, ok bool) {
	for _, f := range fp.cached {
		v, vok := ix.decodePayloadField(payload, f.ci)
		if !vok {
			return false, false
		}
		if !cmpMatch(v, f.op, f.val) {
			return false, true
		}
	}
	return true, true
}

// passRow evaluates every non-key filter against the full heap row.
// Key filters are excluded — the caller already passed them.
func (fp *filterPlan) passRow(row tuple.Row) bool {
	for _, f := range fp.rest {
		if !cmpMatch(row[f.pos], f.op, f.val) {
			return false
		}
	}
	return true
}

// heapFilters resolves filters against a table schema for heap-order
// scans (no index tiers to exploit — every filter runs on the decoded
// row).
func (t *Table) heapFilters(filters []Filter) ([]boundFilter, error) {
	if len(filters) == 0 {
		return nil, nil
	}
	out := make([]boundFilter, len(filters))
	for i, f := range filters {
		if f.Op < CmpEq || f.Op > CmpGe {
			return nil, fmt.Errorf("core: filter on %q: unknown operator %v", f.Field, f.Op)
		}
		pos := t.schema.Index(f.Field)
		if pos < 0 {
			return nil, fmt.Errorf("core: filter field %q not in %s", f.Field, t.schema)
		}
		if want := t.schema.Field(pos).Kind; f.Value.Kind != want {
			return nil, fmt.Errorf("core: filter on %q: value kind %v, want %v", f.Field, f.Value.Kind, want)
		}
		out[i] = boundFilter{pos: pos, op: f.Op, val: f.Value}
	}
	return out, nil
}

func passBound(row tuple.Row, filters []boundFilter) bool {
	for _, f := range filters {
		if !cmpMatch(row[f.pos], f.op, f.val) {
			return false
		}
	}
	return true
}
