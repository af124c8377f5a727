package core

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/tuple"
)

// AggOp is a simple aggregate operator.
type AggOp int

const (
	// AggCount counts rows (Field == "") or non-NULL values of a field.
	AggCount AggOp = iota
	// AggSum sums a numeric field (integer kinds fold to INT64, DOUBLE
	// to DOUBLE). NULLs are skipped.
	AggSum
	// AggMin tracks the smallest non-NULL value of a field.
	AggMin
	// AggMax tracks the largest non-NULL value of a field.
	AggMax
)

func (op AggOp) String() string {
	switch op {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return fmt.Sprintf("AggOp(%d)", int(op))
}

// AggSpec names one aggregate to compute: an operator and the field it
// folds (empty for count(*)).
type AggSpec struct {
	Op    AggOp
	Field string
}

// AggResult is the outcome of Table.Aggregate / Index.Aggregate.
type AggResult struct {
	// Values holds one result per input AggSpec, in order: INT64 for
	// counts and integer sums, DOUBLE for double sums, the field's own
	// kind for min/max (NULL of that kind when no rows matched).
	Values []tuple.Value
	// Rows is how many rows matched the filters.
	Rows int64
	// Pushdown reports whether evaluation ran below the cursor, on key
	// bytes and cached payloads (with per-entry heap fallback on cache
	// misses), instead of folding materialized rows.
	Pushdown bool
	// Segments is how many plan segments the scan covered (1 when
	// serial).
	Segments int
	// Stats aggregates the answer-path counters across segments.
	Stats QueryStats
}

// aggBound is a spec resolved against the schema.
type aggBound struct {
	op   AggOp
	pos  int // schema position, -1 = count(*)
	kind tuple.Kind
	// src is where the field sits in the rows fold is handed: its place
	// in the aggregate's own projection.
	src int
}

// bindAggSpecs resolves and validates specs against the table schema.
// idx is the projection an aggregate reads — the aggregated fields and
// nothing else, so no path materializes a field it does not fold.
func (t *Table) bindAggSpecs(specs []AggSpec) (bounds []aggBound, idx []int, err error) {
	if len(specs) == 0 {
		return nil, nil, fmt.Errorf("core: Aggregate needs at least one AggSpec")
	}
	bounds = make([]aggBound, len(specs))
	idx = make([]int, 0, len(specs))
	for i, sp := range specs {
		b := aggBound{op: sp.Op, pos: -1}
		if sp.Field == "" {
			if sp.Op != AggCount {
				return nil, nil, fmt.Errorf("core: %v needs a field", sp.Op)
			}
		} else {
			pos := t.schema.Index(sp.Field)
			if pos < 0 {
				return nil, nil, fmt.Errorf("core: aggregate field %q not in %s", sp.Field, t.schema)
			}
			b.pos, b.src = pos, len(idx)
			b.kind = t.schema.Field(pos).Kind
			idx = append(idx, pos)
		}
		switch sp.Op {
		case AggCount:
		case AggSum:
			switch b.kind {
			case tuple.KindInt64, tuple.KindInt32, tuple.KindInt16, tuple.KindInt8, tuple.KindFloat64:
			default:
				return nil, nil, fmt.Errorf("core: sum(%s): kind %v is not summable", sp.Field, b.kind)
			}
		case AggMin, AggMax:
		default:
			return nil, nil, fmt.Errorf("core: unknown aggregate op %d", int(sp.Op))
		}
		bounds[i] = b
	}
	return bounds, idx, nil
}

// aggAcc is one aggregate's accumulator.
type aggAcc struct {
	count int64
	sumI  int64
	sumF  float64
	best  tuple.Value
	seen  bool
}

// aggState folds rows into accumulators; one per segment, merged at
// the end.
type aggState struct {
	bounds []aggBound
	rows   int64
	accs   []aggAcc
	stats  QueryStats
}

func newAggState(bounds []aggBound) *aggState {
	return &aggState{bounds: bounds, accs: make([]aggAcc, len(bounds))}
}

func cloneValue(v tuple.Value) tuple.Value {
	if v.Raw != nil {
		v.Raw = append([]byte(nil), v.Raw...)
	}
	return v
}

// fold accumulates one matching row; bounds[i] reads row[bounds[i].src]
// (nothing for count(*)).
func (st *aggState) fold(row tuple.Row) {
	st.rows++
	for i := range st.bounds {
		b := &st.bounds[i]
		a := &st.accs[i]
		if b.pos < 0 {
			a.count++
			continue
		}
		v := row[b.src]
		switch b.op {
		case AggCount:
			if !v.Null {
				a.count++
			}
		case AggSum:
			if v.Null {
				continue
			}
			if b.kind == tuple.KindFloat64 {
				a.sumF += v.Float
			} else {
				a.sumI += v.Int
			}
		case AggMin, AggMax:
			if v.Null {
				continue
			}
			if !a.seen {
				a.best = cloneValue(v)
				a.seen = true
				continue
			}
			c := v.Compare(a.best)
			if (b.op == AggMin && c < 0) || (b.op == AggMax && c > 0) {
				a.best = cloneValue(v)
			}
		}
	}
}

// merge folds another segment's partial state into st.
func (st *aggState) merge(o *aggState) {
	st.rows += o.rows
	st.stats.Add(o.stats)
	for i := range st.accs {
		a, b := &st.accs[i], &o.accs[i]
		a.count += b.count
		a.sumI += b.sumI
		a.sumF += b.sumF
		if b.seen {
			if !a.seen {
				a.best, a.seen = b.best, true
			} else {
				c := b.best.Compare(a.best)
				if (st.bounds[i].op == AggMin && c < 0) || (st.bounds[i].op == AggMax && c > 0) {
					a.best = b.best
				}
			}
		}
	}
}

// result renders the accumulators as output values.
func (st *aggState) result() []tuple.Value {
	out := make([]tuple.Value, len(st.bounds))
	for i := range st.bounds {
		b := &st.bounds[i]
		a := &st.accs[i]
		switch b.op {
		case AggCount:
			out[i] = tuple.Int64(a.count)
		case AggSum:
			if b.kind == tuple.KindFloat64 {
				out[i] = tuple.Float64(a.sumF)
			} else {
				out[i] = tuple.Int64(a.sumI)
			}
		case AggMin, AggMax:
			if !a.seen {
				out[i] = tuple.Null(b.kind)
			} else {
				out[i] = a.best
			}
		}
	}
	return out
}

// Aggregate computes simple aggregates over the table. With WithIndex
// it runs over that index's key range (enabling pushdown and
// WithParallel); without, it folds a heap-order scan. WithFilter
// restricts the rows; WithLimit, WithReverse, and WithProjection are
// invalid here.
func (t *Table) Aggregate(specs []AggSpec, opts ...QueryOption) (AggResult, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.index != "" {
		ix, err := t.Index(cfg.index)
		if err != nil {
			return AggResult{}, err
		}
		cfg.index = ""
		return ix.aggregate(cfg, specs)
	}
	if err := validateAggConfig(cfg); err != nil {
		return AggResult{}, err
	}
	if cfg.lo != nil || cfg.hi != nil || cfg.prefix != nil {
		return AggResult{}, fmt.Errorf("core: key bounds on %q require an index (add WithIndex)", t.name)
	}
	if cfg.parallel > 1 {
		return AggResult{}, fmt.Errorf("core: WithParallel on %q requires an index (add WithIndex)", t.name)
	}
	bounds, idx, err := t.bindAggSpecs(specs)
	if err != nil {
		return AggResult{}, err
	}
	filters, err := t.heapFilters(cfg.filters)
	if err != nil {
		return AggResult{}, err
	}
	st := newAggState(bounds)
	if err := foldCursor(&Cursor{src: t.newHeapSource(idx, filters, false, snapLatest)}, st); err != nil {
		return AggResult{}, err
	}
	return AggResult{Values: st.result(), Rows: st.rows, Segments: 1, Stats: st.stats}, nil
}

// Aggregate computes simple aggregates over the index's key range —
// the same bounds, filters, cache-policy, and WithParallel options as
// Query. When the cache policy is CacheFirst and every needed field
// (aggregated or filtered) is a key or cached field, evaluation is
// pushed below the cursor: entries fold from key bytes and cached
// payloads captured under the scan latch, with a per-entry heap
// fallback on cache misses keeping the result exact.
func (ix *Index) Aggregate(specs []AggSpec, opts ...QueryOption) (AggResult, error) {
	var cfg queryConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.index != "" {
		return AggResult{}, fmt.Errorf("core: WithIndex is only valid on Table.Aggregate")
	}
	return ix.aggregate(cfg, specs)
}

func validateAggConfig(cfg queryConfig) error {
	if cfg.limit != 0 {
		return fmt.Errorf("core: WithLimit is not valid for Aggregate")
	}
	if cfg.reverse {
		return fmt.Errorf("core: WithReverse is not valid for Aggregate")
	}
	if cfg.project != nil {
		return fmt.Errorf("core: WithProjection is not valid for Aggregate")
	}
	return nil
}

func (ix *Index) aggregate(cfg queryConfig, specs []AggSpec) (AggResult, error) {
	if err := validateAggConfig(cfg); err != nil {
		return AggResult{}, err
	}
	bounds, idx, err := ix.table.bindAggSpecs(specs)
	if err != nil {
		return AggResult{}, err
	}
	_, fp, start, end, err := ix.resolveQuery(&cfg, nil, nil)
	if err != nil {
		return AggResult{}, err
	}
	// The pushdown goes ahead when the leaf can always answer: CacheFirst,
	// and every aggregated or filtered field a key or cached field.
	plan := ix.buildProjPlan(nil, idx)
	pushdown := cfg.policy == CacheFirst && fp.coverable() && plan.coverable
	segs := []btree.Segment{{Lo: start, Hi: end}}
	workers := 1
	if cfg.parallel > 1 {
		if segs, err = ix.tree.PlanSegments(start, end, cfg.parallel*segmentsPerWorker); err != nil {
			return AggResult{}, err
		}
		workers = min(cfg.parallel, len(segs))
	}
	states := make([]*aggState, len(segs))
	var scans []blockScan
	if pushdown {
		var r resolver
		r.reset(ix, &plan, fp, cfg.policy, snapLatest, nil)
		// Pushed down, the leaf answers every entry it can: on a cache hit
		// when some needed field lives in the payload, and from key bytes
		// alone — no probe at all — when none does.
		r.leaf = true
		r.probe = plan.usesPayload || (fp != nil && len(fp.cached) > 0)
		scans = make([]blockScan, workers)
		for w := range scans {
			scans[w].r = r
		}
	}
	pool := newSegRunner()
	pool.claim(workers, len(segs), func(w, si int) error {
		st := newAggState(bounds)
		states[si] = st
		if pushdown {
			return aggSegmentPushdown(&scans[w], segs[si], st)
		}
		// The exact-but-unpushed path, and the reference pushdown is tested
		// against: a serial cursor over the segment, same plan and filters.
		cur := new(Cursor)
		cur.reopen(nil, false)
		ix.openIndexSource(cur, &cfg, segs[si].Lo, segs[si].Hi, &plan, fp)
		return foldCursor(cur, st)
	})
	if err := pool.wait(); err != nil {
		return AggResult{}, err
	}
	total := newAggState(bounds)
	for _, st := range states {
		if st != nil {
			total.merge(st)
		}
	}
	return AggResult{
		Values:   total.result(),
		Rows:     total.rows,
		Pushdown: pushdown,
		Segments: len(segs),
		Stats:    total.stats,
	}, nil
}

// foldCursor drains cur, folding its rows into st.
func foldCursor(cur *Cursor, st *aggState) error {
	defer cur.Close()
	for cur.Next() {
		st.fold(cur.Row())
	}
	st.stats.Add(cur.Stats())
	return cur.Err()
}

// aggSegmentPushdown folds the segment through the shared block loop
// without materializing full rows: each entry resolves straight into
// the aggregated fields — from decoded key bytes plus the cache payload
// captured under the leaf latch, or, for an entry that misses the
// cache, from a heap fetch — so the result is identical to the cursor
// path's. Aggregates read latest state.
func aggSegmentPushdown(b *blockScan, seg btree.Segment, st *aggState) error {
	b.open(seg)
	defer b.close()
	vals := make(tuple.Row, len(b.r.plan.idx))
	for b.fill() > 0 {
		for i := 0; i < b.eb.Len(); i++ {
			row, _, how, err := b.resolve(vals, i)
			if err != nil {
				return err
			}
			if how >= tierLeaf {
				st.fold(row)
			}
		}
	}
	st.stats.Add(b.stats)
	return b.bt.Err()
}
