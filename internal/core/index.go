package core

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/idxcache"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// IndexOption configures index creation.
type IndexOption func(*indexConfig)

type indexConfig struct {
	cachedFields []string
	bucketN      int
	predLogLimit int
	cacheSeed    int64
	fillFactor   float64
	nonUnique    bool
}

// WithCache enables the Section 2.1 index cache on this index, caching
// the named non-key fields in leaf free space. All cached fields must
// be fixed width, and an index with a cache must be unique.
func WithCache(fields ...string) IndexOption {
	return func(c *indexConfig) { c.cachedFields = fields }
}

// WithCacheBucket sets the swap-policy bucket size N (default 4).
func WithCacheBucket(n int) IndexOption {
	return func(c *indexConfig) { c.bucketN = n }
}

// WithPredLogLimit sets the predicate-log escalation threshold.
func WithPredLogLimit(n int) IndexOption {
	return func(c *indexConfig) { c.predLogLimit = n }
}

// WithCacheSeed fixes the cache's placement randomness.
func WithCacheSeed(seed int64) IndexOption {
	return func(c *indexConfig) { c.cacheSeed = seed }
}

// WithFillFactor sets the bulk-build fill factor used when the index is
// created over an already-populated table (default 0.68, the canonical
// B+Tree steady state the paper cites).
func WithFillFactor(ff float64) IndexOption {
	return func(c *indexConfig) { c.fillFactor = ff }
}

// NonUnique permits duplicate keys (entries are disambiguated by RID).
// Non-unique indexes cannot carry a cache.
func NonUnique() IndexOption {
	return func(c *indexConfig) { c.nonUnique = true }
}

// Index is a B+Tree over one or more fields of a table, optionally with
// an index cache living in its leaves' free space.
type Index struct {
	table     *Table
	name      string
	keyFields []int
	keyKinds  []tuple.Kind // kinds of keyFields, for decoding entry keys; immutable
	keyNames  []string     // names of keyFields (KeyFieldNames); immutable
	unique    bool
	cfg       indexConfig // resolved creation config (checkpoint manifest)
	tree      *btree.Tree

	cache        *idxcache.Cache
	cachedFields []int
	payloadWidth int
	// payloadOff[i] is the byte offset of cachedFields[i]'s value within
	// the cache payload (after the null-bitmap byte).
	payloadOff []int

	// Projection-plan cache: an immutable slice of resolved plans behind
	// an atomic pointer, grown copy-on-write. Point lookups resolve
	// their projection with a lock-free, allocation-free scan; the slice
	// is tiny in practice (a workload uses a handful of projections).
	projPlans atomic.Pointer[[]projPlan]
	projAll   *projPlan // identity projection for nil, built at creation
}

// projPlan memoizes one resolved projection, including the assembly
// recipe for answering it straight from a leaf (key fields + cached
// payload). Everything is immutable after publication.
type projPlan struct {
	names []string
	idx   []int // schema positions, one per projected field
	// coverable reports whether every projected field is a key field or
	// a cached field — the precondition for a cache hit. Checked once at
	// plan build instead of being rediscovered on every lookup.
	coverable bool
	// steps drive assembleInto when coverable: one source per projected
	// field. usesKey / usesPayload say which sources appear at all.
	steps                []asmStep
	usesKey, usesPayload bool
	// need is what a heap record is decoded into when this plan's reader
	// falls through to the heap (tuple.DecodeFields; nil = every field):
	// the projection, plus the key fields — stillIndexes re-encodes them
	// to check the row against its entry — plus the cached fields, which
	// a point lookup's cache fill reads from the same decoded row.
	need []bool
}

// asmStep says where projected field i comes from on the cache-hit
// path.
type asmStep struct {
	fromKey bool
	src     int // keyVals index or cachedFields index
}

// buildProjPlan resolves idx (schema positions) into a plan. Callers
// pass an immutable names slice.
func (ix *Index) buildProjPlan(names []string, idx []int) projPlan {
	p := projPlan{names: names, idx: idx, coverable: true}
	p.need = fieldSet(ix.table.schema.NumFields(), idx, ix.keyFields, ix.cachedFields)
	p.steps = make([]asmStep, len(idx))
	for i, pos := range idx {
		if ki := indexOf(ix.keyFields, pos); ki >= 0 {
			p.steps[i] = asmStep{fromKey: true, src: ki}
			p.usesKey = true
			continue
		}
		if ci := indexOf(ix.cachedFields, pos); ci >= 0 {
			p.steps[i] = asmStep{src: ci}
			p.usesPayload = true
			continue
		}
		p.coverable = false
		p.steps = nil
		break
	}
	return p
}

// fieldSet marks the given schema positions in a set over n fields, the
// shape tuple.DecodeFields takes: nil when no field is left out.
func fieldSet(n int, groups ...[]int) []bool {
	set, left := make([]bool, n), n
	for _, g := range groups {
		for _, pos := range g {
			if !set[pos] {
				set[pos] = true
				left--
			}
		}
	}
	if left == 0 {
		return nil
	}
	return set
}

// withFilters returns need widened by the fields filters read. need may
// be a cached plan's: it is copied before the first write.
func withFilters(need []bool, filters []boundFilter) []bool {
	owned := false
	for _, f := range filters {
		if need == nil || need[f.pos] {
			continue
		}
		if !owned {
			need, owned = append([]bool(nil), need...), true
		}
		need[f.pos] = true
	}
	return need
}

// decodeFields decodes the fields of rec that need marks into dst (see
// tuple.DecodeFields) — as views when scratch is set: of rec, and of
// *scratch for the strings a string slot rebuilds (see
// tuple.DecodeAlias). Under PoisonScratch every position outside need
// is overwritten, so a reader of a field it did not declare fails at
// once instead of passing on whatever fixed-width value sat there.
func decodeFields(dst tuple.Row, s *tuple.Schema, rec []byte, need []bool, scratch *[]byte) (tuple.Row, error) {
	var (
		row tuple.Row
		err error
	)
	if scratch != nil {
		row, _, err = tuple.DecodeAlias(dst, s, rec, need, scratch)
	} else {
		row, _, err = tuple.DecodeFields(dst, s, rec, need)
	}
	if err == nil && need != nil && poisonScratch.Load() {
		for i := range row {
			if !need[i] {
				row[i] = poisonValue
			}
		}
	}
	return row, err
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// maxProjPlans bounds the plan cache; projections beyond it are
// resolved per call instead of cached (no workload legitimately uses
// this many distinct projections against one index).
const maxProjPlans = 64

// CreateIndex builds an index over the named fields. If the table
// already holds rows, the index is bulk-loaded at the configured fill
// factor; otherwise it starts empty and fills via normal inserts.
func (t *Table) CreateIndex(name string, fields []string, opts ...IndexOption) (*Index, error) {
	cfg := indexConfig{fillFactor: 0.68, bucketN: 4, predLogLimit: 1024, cacheSeed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if name == "" {
		return nil, fmt.Errorf("core: index name must not be empty")
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("core: index %q needs at least one key field", name)
	}
	e := t.engine
	if e.wal != nil {
		e.commitGate.RLock()
		defer e.commitGate.RUnlock()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, exists := t.indexes[name]; exists {
		return nil, fmt.Errorf("core: index %q already exists on %q", name, t.name)
	}
	ix, err := t.newIndexShell(name, fields, cfg)
	if err != nil {
		return nil, err
	}
	if err := ix.build(cfg.fillFactor); err != nil {
		return nil, err
	}
	t.indexes[name] = ix
	if e.wal != nil {
		// The record captures the full config; replay rebuilds the tree
		// from the replayed table state, which build() saw here.
		rec := ddlCreateIndex{
			Table:        t.name,
			Name:         name,
			KeyFields:    fields,
			NonUnique:    cfg.nonUnique,
			CachedFields: cfg.cachedFields,
			BucketN:      cfg.bucketN,
			PredLogLimit: cfg.predLogLimit,
			CacheSeed:    cfg.cacheSeed,
			FillFactor:   cfg.fillFactor,
		}
		lsn, err := e.wal.Append(recCreateIndex, encodeJSON(rec))
		if err != nil {
			delete(t.indexes, name)
			return nil, err
		}
		if err := e.walCommit(lsn); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// newIndexShell resolves and validates an index's configuration —
// everything about creation except building the tree and registering
// it. Shared by CreateIndex, WAL replay, and manifest reopen.
func (t *Table) newIndexShell(name string, fields []string, cfg indexConfig) (*Index, error) {
	ix := &Index{table: t, name: name, unique: !cfg.nonUnique, cfg: cfg}
	for _, f := range fields {
		pos := t.schema.Index(f)
		if pos < 0 {
			return nil, fmt.Errorf("core: index %q: no field %q in %s", name, f, t.schema)
		}
		ix.keyFields = append(ix.keyFields, pos)
		ix.keyKinds = append(ix.keyKinds, t.schema.Field(pos).Kind)
		ix.keyNames = append(ix.keyNames, t.schema.Field(pos).Name)
	}
	if len(cfg.cachedFields) > 0 {
		if cfg.nonUnique {
			return nil, fmt.Errorf("core: index %q: cache requires a unique index", name)
		}
		if len(cfg.cachedFields) > 8 {
			return nil, fmt.Errorf("core: index %q: at most 8 cached fields (null bitmap is one byte)", name)
		}
		width := 1 // null bitmap byte
		for _, f := range cfg.cachedFields {
			pos := t.schema.Index(f)
			if pos < 0 {
				return nil, fmt.Errorf("core: index %q: no cached field %q", name, f)
			}
			w := fixedValueWidth(t.schema.Field(pos))
			if w < 0 {
				return nil, fmt.Errorf("core: index %q: cached field %q is not fixed width", name, f)
			}
			ix.cachedFields = append(ix.cachedFields, pos)
			ix.payloadOff = append(ix.payloadOff, width)
			width += w
		}
		ix.payloadWidth = width
		cache, err := idxcache.New(idxcache.Config{
			PayloadSize:  width,
			BucketN:      cfg.bucketN,
			PredLogLimit: cfg.predLogLimit,
			Seed:         cfg.cacheSeed,
		})
		if err != nil {
			return nil, err
		}
		ix.cache = cache
	}
	allIdx := make([]int, t.schema.NumFields())
	for i := range allIdx {
		allIdx[i] = i
	}
	allPlan := ix.buildProjPlan(nil, allIdx)
	ix.projAll = &allPlan
	return ix, nil
}

// build constructs the tree: bulk-loaded from a sorted scan when the
// table has rows, empty otherwise.
func (ix *Index) build(ff float64) error {
	t := ix.table
	if t.rows.Load() == 0 {
		tree, err := btree.New(t.engine.pool)
		if err != nil {
			return err
		}
		ix.tree = tree
		return nil
	}
	type entry struct {
		key []byte
		rid uint64
	}
	var entries []entry
	cur, err := t.Query()
	if err != nil {
		return err
	}
	defer cur.Close()
	for cur.Next() {
		key, kerr := ix.entryKey(cur.Row(), cur.RID())
		if kerr != nil {
			return kerr
		}
		entries = append(entries, entry{key: key, rid: cur.RID().Pack()})
	}
	if err := cur.Err(); err != nil {
		return err
	}
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].key, entries[j].key) < 0
	})
	for i := 1; i < len(entries); i++ {
		if bytes.Equal(entries[i-1].key, entries[i].key) {
			return fmt.Errorf("core: index %q: duplicate key in unique index", ix.name)
		}
	}
	i := 0
	tree, err := btree.BulkLoad(t.engine.pool, ff, func() ([]byte, uint64, bool) {
		if i >= len(entries) {
			return nil, 0, false
		}
		e := entries[i]
		i++
		return e.key, e.rid, true
	})
	if err != nil {
		return err
	}
	ix.tree = tree
	return nil
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Tree exposes the underlying B+Tree (stats, experiments).
func (ix *Index) Tree() *btree.Tree { return ix.tree }

// Cache exposes the index cache, or nil when caching is disabled.
func (ix *Index) Cache() *idxcache.Cache { return ix.cache }

// Unique reports whether the index enforces unique keys.
func (ix *Index) Unique() bool { return ix.unique }

// KeyFieldNames returns the names of the key fields in order. The slice
// is the index's own, shared by every caller: it must not be modified.
func (ix *Index) KeyFieldNames() []string { return ix.keyNames }

// CachedFieldNames returns the names of the cached fields in order.
func (ix *Index) CachedFieldNames() []string {
	names := make([]string, len(ix.cachedFields))
	for i, pos := range ix.cachedFields {
		names[i] = ix.table.schema.Field(pos).Name
	}
	return names
}

// entryKey builds the stored key for a row: the encoded key fields,
// plus the packed RID for non-unique indexes (disambiguation suffix).
func (ix *Index) entryKey(row tuple.Row, rid storage.RID) ([]byte, error) {
	return ix.appendEntryKey(nil, row, rid)
}

// appendEntryKey is entryKey appending into dst.
func (ix *Index) appendEntryKey(dst []byte, row tuple.Row, rid storage.RID) ([]byte, error) {
	var err error
	for _, pos := range ix.keyFields {
		if dst, err = tuple.EncodeKey(dst, row[pos]); err != nil {
			return nil, err
		}
	}
	if !ix.unique {
		dst = appendRIDSuffix(dst, rid)
	}
	return dst, nil
}

// stillIndexes reports whether row, just fetched from rid, is the row
// the entry under key points at, encoding its key into scratch (which
// it returns). A reader fetches the row with no heap latch held since
// it read the entry: a racing delete (or relocating update) can free
// the slot and an insert reuse it, and the fetch then returns an
// unrelated row — not to be served under this key (see tierStale).
func (ix *Index) stillIndexes(scratch []byte, row tuple.Row, rid storage.RID, key []byte) ([]byte, bool) {
	k, err := ix.appendEntryKey(scratch[:0], row, rid)
	if err != nil {
		return scratch, false
	}
	return k, bytes.Equal(k, key)
}

// searchKey encodes a full key — one value per key field, each of its
// field's kind — into dst.
func (ix *Index) searchKey(dst []byte, keyVals []tuple.Value) ([]byte, error) {
	if len(keyVals) != len(ix.keyFields) {
		return nil, fmt.Errorf("core: index %q wants %d key values, got %d", ix.name, len(ix.keyFields), len(keyVals))
	}
	return ix.boundKey(dst, keyVals)
}

func appendRIDSuffix(key []byte, rid storage.RID) []byte {
	packed := rid.Pack()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(packed >> (56 - 8*i))
	}
	return append(key, buf[:]...)
}

func (ix *Index) cachedFieldsChanged(oldRow, newRow tuple.Row) bool {
	for _, pos := range ix.cachedFields {
		if !oldRow[pos].Equal(newRow[pos]) {
			return true
		}
	}
	return false
}

// fixedValueWidth returns the bytes needed to cache a value of the
// field, or -1 for variable-width fields.
func fixedValueWidth(f tuple.Field) int {
	if f.Kind == tuple.KindChar {
		return f.Size
	}
	return f.Kind.FixedSize()
}
