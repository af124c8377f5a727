package core

import (
	"fmt"

	"repro/internal/btree"
	"repro/internal/tuple"
)

// CachePolicy selects how a query answers projections.
type CachePolicy int

const (
	// CacheFirst (the default) answers coverable projections from the
	// §2.1 index cache in leaf free space, falling back to the heap per
	// row on cache misses. The query's shape decides the fill: a point
	// query — every key field of a unique index bound by WithPrefix, at
	// the latest state — installs the entry it missed; range scans probe
	// the cache but never fill it — filling on scans would flood the
	// slots with cold tuples.
	CacheFirst CachePolicy = iota
	// HeapOnly bypasses the index cache entirely and fetches every row
	// from the heap — the baseline the paper's measurements compare
	// against, and the right choice when a scan must see heap bytes.
	HeapOnly
)

// QueryOption configures Table.Query and Index.Query.
type QueryOption func(*queryConfig)

type queryConfig struct {
	index    string
	lo, hi   []tuple.Value
	prefix   []tuple.Value
	project  []string
	limit    int
	reverse  bool
	policy   CachePolicy
	filters  []Filter
	parallel int
	merge    MergeMode
	snap     uint64
	snapSet  bool
	// view: a serial index scan's heap answers alias the resolver's
	// record buffer instead of copying strings and bytes out. QueryInto
	// sets it; no option does.
	view bool
	// vals backs the bound values the options copy in (see keep).
	vals  [4]tuple.Value
	nvals int
}

// keep copies an option's bound values into the config: the caller's
// slice is not retained, and while the values fit inline a bound costs
// no allocation. nil stays nil — "no bound".
func (c *queryConfig) keep(vals []tuple.Value) []tuple.Value {
	if vals == nil {
		return nil
	}
	if n := c.nvals + len(vals); n <= len(c.vals) {
		kept := append(c.vals[c.nvals:c.nvals:n], vals...)
		c.nvals = n
		return kept
	}
	return append([]tuple.Value{}, vals...)
}

// snapshotTS is the effective read timestamp: the pinned snapshot when
// one was set (Txn.Query), else snapLatest.
func (c *queryConfig) snapshotTS() uint64 {
	if c.snapSet {
		return c.snap
	}
	return snapLatest
}

// pinSnapshot makes the query read as-of ts — the Txn.Query path.
// Snapshot reads bypass the index cache (HeapOnly): cached payloads
// always describe the newest version, and a pinned snapshot may need an
// older one.
func (c *queryConfig) pinSnapshot(ts uint64) {
	c.snap, c.snapSet = ts, true
	c.policy = HeapOnly
}

// WithIndex routes a Table.Query through the named index, yielding rows
// in key order and enabling key bounds. Invalid on Index.Query.
func WithIndex(name string) QueryOption {
	return func(c *queryConfig) { c.index = name }
}

// WithKeyRange bounds an index query to lo ≤ key < hi. Either side may
// be nil (unbounded). Bounds may be a prefix of the index's key fields:
// a one-field lo on a two-field index starts at the first key whose
// leading field reaches lo.
func WithKeyRange(lo, hi []tuple.Value) QueryOption {
	return func(c *queryConfig) { c.lo, c.hi = c.keep(lo), c.keep(hi) }
}

// WithPrefix bounds an index query to keys whose leading fields equal
// vals exactly — the non-unique "all entries for this key" read.
// Mutually exclusive with WithKeyRange.
func WithPrefix(vals ...tuple.Value) QueryOption {
	return func(c *queryConfig) { c.prefix = c.keep(vals) }
}

// WithProjection restricts rows to the named fields, in that order.
// Index queries resolve the projection through the copy-on-write plan
// cache, so a projection covered by key + cached fields is answered
// from the index cache without touching the heap.
func WithProjection(fields ...string) QueryOption {
	return func(c *queryConfig) { c.project = fields }
}

// WithLimit stops the cursor after n rows (0 = unlimited).
func WithLimit(n int) QueryOption {
	return func(c *queryConfig) { c.limit = n }
}

// WithReverse iterates the range in descending key order (index
// queries) or reverse heap order (table queries). Reverse index scans
// pay one descent per leaf — leaves only chain rightward.
func WithReverse() QueryOption {
	return func(c *queryConfig) { c.reverse = true }
}

// WithCachePolicy selects CacheFirst (default) or HeapOnly.
func WithCachePolicy(p CachePolicy) QueryOption {
	return func(c *queryConfig) { c.policy = p }
}

// WithParallel executes an index range scan as per-subtree segments on
// n workers, each driving its own pinned-frame cursor and emitting
// vectorized row blocks. n ≤ 1 keeps the serial path. Results arrive
// in key order by default (loser-tree merge over segment heads); pass
// WithMergeMode(MergeUnordered) to interleave for maximum throughput.
// Parallel scans require an index and forward iteration; WithLimit
// still bounds the row count (under MergeUnordered the limited prefix
// is whichever rows arrived first). See Cursor.SegmentStats for
// per-segment accounting.
func WithParallel(n int) QueryOption {
	return func(c *queryConfig) { c.parallel = n }
}

// WithMergeMode selects how a parallel query's segment streams combine:
// MergeOrdered (default) or MergeUnordered. No effect on serial
// queries.
func WithMergeMode(m MergeMode) QueryOption {
	return func(c *queryConfig) { c.merge = m }
}

// Query opens a cursor over the table. With no options it streams every
// row in heap order; WithIndex switches to key order and enables key
// bounds. See Cursor for the iteration contract and pin lifetime —
// callers own the returned cursor and must Close it (or drain it, or
// range over All) to release its leaf pin.
//
// Queries never block writers: an open cursor holds a pin, not a
// latch, between Next calls, and re-validates its position against the
// per-leaf version counter, so rows present when the scan reached
// their leaf are served exactly once even while concurrent writers
// split the scanned leaves.
//
// Query is QueryInto on a fresh Cursor, except that its rows own their
// strings and bytes: a Row.Clone of one outlives the cursor.
func (t *Table) Query(opts ...QueryOption) (*Cursor, error) {
	c := new(Cursor)
	c.reopen(opts, false)
	return c.opened(t.query(c))
}

// QueryInto is Query opening c in place, so a caller that keeps one
// Cursor across its queries (the server keeps one per pooled request)
// pays for no cursor after the first. c must be zero or closed; an open
// c is closed first. On error c is left closed.
//
// Its rows are views: on a serial index scan a heap answer's strings and
// byte slices alias the cursor's record buffer, which the next Next or
// Close overwrites. Neither the row nor any value in it may be kept past
// that — copy the strings to retain them (Row.Clone does not). A caller
// that encodes each row before asking for the next serves it without a
// copy.
func (t *Table) QueryInto(c *Cursor, opts ...QueryOption) error {
	c.reopen(opts, true)
	_, err := c.opened(t.query(c))
	return err
}

// reopen readies c for a new query: an open c is closed, then c is
// cleared in place — the one allocation an index query makes is the
// Cursor itself, since its source, bounds and row scratch all live
// inside it — and opts are applied to its config. view is the config's
// view flag (QueryInto's, never an option's).
func (c *Cursor) reopen(opts []QueryOption, view bool) {
	if c.src != nil {
		c.finish()
	}
	*c = Cursor{}
	c.row = c.rowArr[:0]
	for _, o := range opts {
		o(&c.cfg)
	}
	c.cfg.view = view
}

// opened finishes an open: the cursor on success, nil and a closed c on
// error.
func (c *Cursor) opened(err error) (*Cursor, error) {
	if err != nil {
		c.done = true
		return nil, err
	}
	return c, nil
}

// query opens c over the table, as its config says.
func (t *Table) query(c *Cursor) error {
	cfg := &c.cfg
	if cfg.index != "" {
		ix, err := t.Index(cfg.index)
		if err != nil {
			return err
		}
		return ix.query(c)
	}
	if cfg.lo != nil || cfg.hi != nil || cfg.prefix != nil {
		return fmt.Errorf("core: key bounds on %q require an index (add WithIndex)", t.name)
	}
	if cfg.parallel > 1 {
		return fmt.Errorf("core: WithParallel on %q requires an index (add WithIndex)", t.name)
	}
	projIdx, err := t.projPositions(cfg.project)
	if err != nil {
		return err
	}
	filters, err := t.heapFilters(cfg.filters)
	if err != nil {
		return err
	}
	c.src = t.newHeapSource(projIdx, filters, cfg.reverse, cfg.snapshotTS())
	c.limit, c.reverse = cfg.limit, cfg.reverse
	return nil
}

// newHeapSource builds the heap-order row source projecting projIdx
// (nil = every field) from the rows that pass filters.
func (t *Table) newHeapSource(projIdx []int, filters []boundFilter, reverse bool, snap uint64) *heapSource {
	s := &heapSource{t: t, pages: t.file.Pages(), reverse: reverse, projIdx: projIdx, filters: filters, snap: snap}
	if projIdx != nil {
		s.need = withFilters(fieldSet(t.schema.NumFields(), projIdx), filters)
	}
	return s
}

// Query opens a cursor over the index's key range. The default policy
// answers coverable projections straight from the index cache. The
// cursor contract (pin lifetime, Close, scratch rows, writer
// interaction) is the same as Table.Query's.
func (ix *Index) Query(opts ...QueryOption) (*Cursor, error) {
	c := new(Cursor)
	c.reopen(opts, false)
	if c.cfg.index != "" {
		return nil, fmt.Errorf("core: WithIndex is only valid on Table.Query")
	}
	return c.opened(ix.query(c))
}

// query opens c over the index, as its config says. The bounds are
// encoded into c's own arrays, which the btree cursor copies from.
func (ix *Index) query(c *Cursor) error {
	cfg := &c.cfg
	plan, fp, start, end, err := ix.resolveQuery(cfg, c.ix.bounds[0][:0], c.ix.bounds[1][:0])
	if err != nil {
		return err
	}
	if cfg.parallel > 1 {
		if cfg.reverse {
			return fmt.Errorf("core: WithParallel does not support WithReverse")
		}
		return ix.parallelQuery(c, plan, fp, start, end)
	}
	if ix.unique && len(cfg.prefix) == len(ix.keyFields) && !cfg.reverse {
		ix.openPointSource(c, start, plan, fp)
		return nil
	}
	ix.openIndexSource(c, cfg, start, end, plan, fp)
	return nil
}

// resolveQuery turns a queryConfig into the pieces every index read
// path shares: the projection plan, the classified filter plan, and the
// key bounds, encoded into lo and hi (nil: fresh memory).
func (ix *Index) resolveQuery(cfg *queryConfig, lo, hi []byte) (plan *projPlan, fp *filterPlan, start, end []byte, err error) {
	if cfg.prefix != nil && (cfg.lo != nil || cfg.hi != nil) {
		return nil, nil, nil, nil, fmt.Errorf("core: WithPrefix and WithKeyRange are mutually exclusive")
	}
	if plan, err = ix.resolveProjection(cfg.project); err != nil {
		return nil, nil, nil, nil, err
	}
	if fp, err = ix.buildFilterPlan(cfg.filters); err != nil {
		return nil, nil, nil, nil, err
	}
	if cfg.prefix != nil {
		p, perr := ix.boundKey(lo, cfg.prefix)
		if perr != nil {
			return nil, nil, nil, nil, perr
		}
		start, end = p, prefixSuccessorInto(hi, p)
	} else {
		if start, err = ix.boundKey(lo, cfg.lo); err != nil {
			return nil, nil, nil, nil, err
		}
		if end, err = ix.boundKey(hi, cfg.hi); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return plan, fp, start, end, nil
}

// openIndexSource makes c a serial index cursor over encoded bounds —
// shared by Query and the cursor path of Aggregate. The source, its
// resolver and its btree cursor are c's own fields, so this allocates
// nothing.
func (ix *Index) openIndexSource(c *Cursor, cfg *queryConfig, start, end []byte, plan *projPlan, fp *filterPlan) {
	s := &c.ix
	c.src, c.limit, c.reverse = s, cfg.limit, cfg.reverse
	s.aim(ix, cfg, plan, fp, &c.stats)
	// Options are set by index: append would move them to the heap.
	var bopts [2]btree.CursorOption
	n := 0
	if cfg.reverse {
		bopts[n] = btree.Reverse()
		n++
	}
	if s.r.probe {
		bopts[n] = btree.WithEntryVisitor(s)
		n++
	}
	ix.tree.OpenCursor(&s.bt, start, end, bopts[:n]...)
}

// openPointSource makes c a point cursor (pointSource) on key, the
// encoded full key of c's WithPrefix. A leaf answer takes the key values
// the caller searched for instead of decoding them from the entry.
func (ix *Index) openPointSource(c *Cursor, key []byte, plan *projPlan, fp *filterPlan) {
	s, cfg := &c.ix, &c.cfg
	c.src, c.limit = (*pointSource)(s), 1
	s.aim(ix, cfg, plan, fp, &c.stats)
	s.r.keyVals, s.r.decodeKey = append(s.r.keyVals, cfg.prefix...), false
	s.point = key
	s.fill = cfg.policy == CacheFirst && ix.cache != nil && s.r.snap == snapLatest
}

// aim points the source's resolver at plan and fp under cfg's policy and
// snapshot, counting into stats, and binds its scratch where it sits.
func (s *indexSource) aim(ix *Index, cfg *queryConfig, plan *projPlan, fp *filterPlan, stats *QueryStats) {
	s.r.reset(ix, plan, fp, cfg.policy, cfg.snapshotTS(), stats)
	s.r.view = cfg.view
	s.r.bind()
}

// VisitEntry is the serial scan's entry visitor: it probes the §2.1
// cache under the latch the cursor already holds — the §2.1.1
// leaf-answer flow, batched into the scan.
func (s *indexSource) VisitEntry(l *btree.Leaf, pos int) {
	s.hit = false
	if !s.gate.prepare(s.r.ix.cache, l) {
		return
	}
	if p, ok := s.r.ix.cache.LookupInto(s.r.payload[:0], l, l.ValueAt(pos)); ok {
		s.r.payload = p
		s.hit = true
	}
}

// boundKey encodes a (possibly partial) key bound into dst, kind-checking
// each value against the corresponding key field. No values: nil.
func (ix *Index) boundKey(dst []byte, vals []tuple.Value) ([]byte, error) {
	if len(vals) == 0 {
		return nil, nil
	}
	if len(vals) > len(ix.keyFields) {
		return nil, fmt.Errorf("core: index %q: bound has %d values, index has %d key fields",
			ix.name, len(vals), len(ix.keyFields))
	}
	for i, v := range vals {
		want := ix.table.schema.Field(ix.keyFields[i]).Kind
		if v.Kind != want {
			return nil, fmt.Errorf("core: index %q bound field %d: kind %v, want %v", ix.name, i, v.Kind, want)
		}
	}
	return tuple.EncodeKey(dst, vals...)
}

// projPositions maps projected names to schema positions (nil = all
// fields, signalled by a nil slice).
func (t *Table) projPositions(project []string) ([]int, error) {
	if project == nil {
		return nil, nil
	}
	idx := make([]int, len(project))
	for i, name := range project {
		pos := t.schema.Index(name)
		if pos < 0 {
			return nil, fmt.Errorf("core: projection field %q not in %s", name, t.schema)
		}
		idx[i] = pos
	}
	return idx, nil
}
