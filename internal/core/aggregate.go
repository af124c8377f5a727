package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/storage"
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

// aggBound is a spec resolved against the schema (and, on an index
// path, against the index's key/cached field layout).
type aggBound struct {
	op     AggOp
	pos    int // schema position, -1 = count(*)
	kind   tuple.Kind
	ki, ci int // keyFields / cachedFields index, -1 when not there
}

// bindAggSpecs resolves and validates specs against the table schema.
func (t *Table) bindAggSpecs(specs []AggSpec) ([]aggBound, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: Aggregate needs at least one AggSpec")
	}
	bounds := make([]aggBound, len(specs))
	for i, sp := range specs {
		b := aggBound{op: sp.Op, pos: -1, ki: -1, ci: -1}
		if sp.Field == "" {
			if sp.Op != AggCount {
				return nil, fmt.Errorf("core: %v needs a field", sp.Op)
			}
		} else {
			pos := t.schema.Index(sp.Field)
			if pos < 0 {
				return nil, fmt.Errorf("core: aggregate field %q not in %s", sp.Field, t.schema)
			}
			b.pos = pos
			b.kind = t.schema.Field(pos).Kind
		}
		switch sp.Op {
		case AggCount:
		case AggSum:
			switch b.kind {
			case tuple.KindInt64, tuple.KindInt32, tuple.KindInt16, tuple.KindInt8, tuple.KindFloat64:
			default:
				return nil, fmt.Errorf("core: sum(%s): kind %v is not summable", sp.Field, b.kind)
			}
		case AggMin, AggMax:
		default:
			return nil, fmt.Errorf("core: unknown aggregate op %d", int(sp.Op))
		}
		bounds[i] = b
	}
	return bounds, nil
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

// fold accumulates one matching row. vals[i] is the value for bounds[i]
// (ignored for count(*)).
func (st *aggState) fold(vals []tuple.Value) {
	st.rows++
	for i := range st.bounds {
		b := &st.bounds[i]
		a := &st.accs[i]
		switch b.op {
		case AggCount:
			if b.pos < 0 || !vals[i].Null {
				a.count++
			}
		case AggSum:
			if vals[i].Null {
				continue
			}
			if b.kind == tuple.KindFloat64 {
				a.sumF += vals[i].Float
			} else {
				a.sumI += vals[i].Int
			}
		case AggMin, AggMax:
			v := vals[i]
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
	bounds, err := t.bindAggSpecs(specs)
	if err != nil {
		return AggResult{}, err
	}
	filters, err := t.heapFilters(cfg.filters)
	if err != nil {
		return AggResult{}, err
	}
	cur := &Cursor{src: &heapSource{t: t, pages: t.file.Pages(), filters: filters, snap: snapLatest}}
	defer cur.Close()
	st := newAggState(bounds)
	if err := foldCursor(cur, st); err != nil {
		return AggResult{}, err
	}
	st.stats.Add(cur.Stats())
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
	bounds, err := ix.table.bindAggSpecs(specs)
	if err != nil {
		return AggResult{}, err
	}
	for i := range bounds {
		if bounds[i].pos >= 0 {
			bounds[i].ki = indexOf(ix.keyFields, bounds[i].pos)
			bounds[i].ci = indexOf(ix.cachedFields, bounds[i].pos)
		}
	}
	_, fp, start, end, err := ix.resolveQuery(cfg)
	if err != nil {
		return AggResult{}, err
	}
	pushdown := cfg.policy == CacheFirst && fp.coverable() && boundsCoverable(bounds)
	for i := range bounds {
		if bounds[i].pos >= 0 && bounds[i].ki < 0 && ix.cache == nil {
			pushdown = false // non-key fields with no cache: nothing to push to
		}
	}
	segs := []btree.Segment{{Lo: start, Hi: end}}
	workers := 1
	if cfg.parallel > 1 {
		if segs, err = ix.tree.PlanSegments(start, end, cfg.parallel*segmentsPerWorker); err != nil {
			return AggResult{}, err
		}
		workers = cfg.parallel
		if workers > len(segs) {
			workers = len(segs)
		}
	}
	states := make([]*aggState, len(segs))
	var (
		next  atomic.Int32
		wg    sync.WaitGroup
		errMu sync.Mutex
		wErr  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				si := int(next.Add(1)) - 1
				if si >= len(segs) {
					return
				}
				st := newAggState(bounds)
				var e error
				if pushdown {
					e = ix.aggSegmentPushdown(segs[si], bounds, fp, st)
				} else {
					e = ix.aggSegmentCursor(segs[si], bounds, fp, cfg.policy, st)
				}
				states[si] = st
				if e != nil {
					errMu.Lock()
					if wErr == nil {
						wErr = e
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if wErr != nil {
		return AggResult{}, wErr
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

// boundsCoverable reports whether every aggregated field is a key or
// cached field — the pushdown precondition alongside filter
// coverability.
func boundsCoverable(bounds []aggBound) bool {
	for _, b := range bounds {
		if b.pos >= 0 && b.ki < 0 && b.ci < 0 {
			return false
		}
	}
	return true
}

// foldCursor drains cur, folding full-schema rows into st.
func foldCursor(cur *Cursor, st *aggState) error {
	vals := make([]tuple.Value, len(st.bounds))
	for cur.Next() {
		row := cur.Row()
		for i := range st.bounds {
			if st.bounds[i].pos >= 0 {
				vals[i] = row[st.bounds[i].pos]
			}
		}
		st.fold(vals)
	}
	return cur.Err()
}

// aggSegmentCursor is the exact-but-unpushed path: a serial cursor over
// the segment with the same filters, folding materialized rows. Also
// the reference implementation pushdown is tested against.
func (ix *Index) aggSegmentCursor(seg btree.Segment, bounds []aggBound, fp *filterPlan, policy CachePolicy, st *aggState) error {
	s := ix.newIndexSource(seg.Lo, seg.Hi, ix.projAll, fp, policy, false)
	cur := &Cursor{src: s}
	defer cur.Close()
	if err := foldCursor(cur, st); err != nil {
		return err
	}
	st.stats.Add(cur.Stats())
	return nil
}

// aggSegmentPushdown folds the segment without materializing rows:
// block-fetched entries evaluate on decoded key bytes plus the cache
// payloads the entry visitor captured under the leaf latch. Entries
// whose needed fields miss the cache fall back to a heap fetch, so the
// result is identical to the cursor path.
func (ix *Index) aggSegmentPushdown(seg btree.Segment, bounds []aggBound, fp *filterPlan, st *aggState) error {
	// Does any bound or filter need a non-key field? If not, the scan
	// never probes the cache at all — key bytes answer everything.
	cacheNeeded := fp != nil && len(fp.cached) > 0
	needKey := fp != nil && len(fp.key) > 0
	for _, b := range bounds {
		if b.pos >= 0 && b.ki < 0 {
			cacheNeeded = true
		}
		if b.ki >= 0 {
			needKey = true
		}
	}
	keyKinds := ix.keyKinds
	var (
		eb       btree.EntryBlock
		hits     []bool
		payloads []byte
		poffs    []int32
		keyVals  []tuple.Value
		heapRow  tuple.Row
		heapBuf  []byte
	)
	var bopts []btree.CursorOption
	if cacheNeeded {
		bopts = append(bopts, btree.WithEntryVisitor(func(l *btree.Leaf, pos int) {
			hit := false
			if ix.cache.Prepare(l) {
				if pl, ok := ix.cache.LookupInto(payloads, l, l.ValueAt(pos)); ok {
					payloads = pl
					hit = true
				}
			}
			if len(poffs) == 0 {
				poffs = append(poffs, 0)
			}
			poffs = append(poffs, int32(len(payloads)))
			hits = append(hits, hit)
		}))
	}
	bt := ix.tree.NewCursor(seg.Lo, seg.Hi, bopts...)
	defer bt.Close()
	vals := make([]tuple.Value, len(bounds))
	for {
		hits, payloads, poffs = hits[:0], payloads[:0], poffs[:0]
		k := bt.NextBlock(&eb, blockRows)
		if k == 0 {
			st.stats.LeafFetches += bt.LeafFetches()
			return bt.Err()
		}
		for i := 0; i < k; i++ {
			key := eb.Key(i)
			// Aggregates read latest state: skip dead versions (their
			// entries persist until GC).
			if !ix.table.ridVisible(storage.UnpackRID(eb.Value(i)), snapLatest) {
				continue
			}
			hit := cacheNeeded && hits[i]
			var payload []byte
			if hit {
				payload = payloads[poffs[i]:poffs[i+1]]
			}
			if needKey {
				kv, err := tuple.DecodeKeyInto(keyVals[:0], key, keyKinds...)
				if err != nil {
					return fmt.Errorf("core: decoding key: %w", err)
				}
				keyVals = kv
			}
			if fp != nil && len(fp.key) > 0 && !fp.passKey(keyVals) {
				continue
			}
			if hit && fp != nil && len(fp.cached) > 0 {
				pass, ok := fp.passCached(ix, payload)
				if ok && !pass {
					continue
				}
				if !ok {
					hit = false
				}
			}
			// Fill vals from the cheapest tier; a payload decode failure
			// or cache miss demotes the entry to the heap path.
			needHeap := cacheNeeded && !hit
			if !needHeap {
				for j := range bounds {
					b := &bounds[j]
					if b.pos < 0 {
						continue
					}
					if b.ki >= 0 {
						vals[j] = keyVals[b.ki]
						continue
					}
					v, ok := ix.decodePayloadField(payload, b.ci)
					if !ok {
						needHeap = true
						break
					}
					vals[j] = v
				}
			}
			if needHeap {
				rid := storage.UnpackRID(eb.Value(i))
				rec, err := ix.table.file.GetInto(heapBuf[:0], rid)
				if err != nil {
					if errors.Is(err, storage.ErrDeleted) {
						continue // racing delete; the row is gone
					}
					return fmt.Errorf("core: fetching %v: %w", rid, err)
				}
				heapBuf = rec[:0]
				row, _, derr := tuple.DecodeInto(heapRow, ix.table.schema, rec)
				if derr != nil {
					return fmt.Errorf("core: decoding %v: %w", rid, derr)
				}
				heapRow = row
				st.stats.HeapReads++
				if fp != nil && !fp.passRow(row) {
					continue
				}
				for j := range bounds {
					if bounds[j].pos >= 0 {
						vals[j] = row[bounds[j].pos]
					}
				}
			} else if hit {
				st.stats.CacheHits++
			}
			st.fold(vals)
		}
	}
}
