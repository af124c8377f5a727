package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// TableOption configures table creation.
type TableOption func(*tableConfig)

type tableConfig struct {
	appendOnly       bool
	heapFillFactor   float64
	heapInsertShards int
}

// WithAppendOnlyHeap forces inserts to always extend the tail page,
// never refilling older pages' free space — the placement policy whose
// locality waste Section 3.1 measures.
func WithAppendOnlyHeap() TableOption {
	return func(c *tableConfig) { c.appendOnly = true }
}

// WithHeapFillFactor reserves 1−ff of each heap page for update
// headroom and the Section 2.2 join cache.
func WithHeapFillFactor(ff float64) TableOption {
	return func(c *tableConfig) { c.heapFillFactor = ff }
}

// WithHeapInsertShards sets the table's heap insert shard count —
// parallel inserters contend per shard, each of which owns a tail page
// and a free-space map. n < 1 picks automatically (min(8, GOMAXPROCS)),
// overriding any engine-wide Options.HeapInsertShards default; that
// default applies only when the option is absent. Ignored under
// WithAppendOnlyHeap, which needs a single tail.
func WithHeapInsertShards(n int) TableOption {
	return func(c *tableConfig) {
		if n < 1 {
			n = -1 // explicit "automatic", distinct from option-absent 0
		}
		c.heapInsertShards = n
	}
}

// Table is a heap-backed table plus its indexes.
type Table struct {
	engine *Engine
	name   string
	schema *tuple.Schema
	file   *heap.File
	cfg    tableConfig // resolved creation config (checkpoint manifest)

	mu      sync.RWMutex // nblb:lock table-mu
	indexes map[string]*Index
	rows    atomic.Int64

	// vers is the table's MVCC version store (mvcc.go). Rows with no
	// entry are visible to every snapshot — the empty map is the
	// pre-transactional state and costs nothing.
	vers versionStore

	// adopting is set by the one trip that adopts the schema's packed
	// record layout (layout.go).
	adopting atomic.Bool

	// The escape counters Stats reports: records written in the packed
	// layout, those of them carrying an escape, and per escape bit how
	// many escaped it.
	packedRecs, escapedRecs atomic.Int64
	escapes                 [64]atomic.Int64
}

// TableStats is what a table's writes did since the engine opened it.
type TableStats struct {
	// Packed counts the records written in the table's packed layout.
	Packed int64
	// Escaped counts those of them holding at least one value outside the
	// layout's domain, and Escapes, per schema field, those holding one in
	// that field. The gain of the packed layout rests on these staying
	// small (ARCHITECTURE.md, "What the gain rests on").
	Escaped int64
	Escapes []int64
}

// Stats returns the table's counters.
func (t *Table) Stats() TableStats {
	st := TableStats{
		Packed:  t.packedRecs.Load(),
		Escaped: t.escapedRecs.Load(),
		Escapes: make([]int64, t.schema.NumFields()),
	}
	if l := t.schema.Packed(); l != nil {
		for k, i := range l.EscapeFields() {
			st.Escapes[i] = t.escapes[k].Load()
		}
	}
	return st
}

// countEscapes adds a record written to the table, and the escape bitmap
// its encoder reported, to the escape counters.
func (t *Table) countEscapes(rec []byte, esc uint64) {
	if rec[0] != tuple.TagPacked {
		return
	}
	t.packedRecs.Add(1)
	if esc == 0 {
		return
	}
	t.escapedRecs.Add(1)
	for ; esc != 0; esc &= esc - 1 {
		t.escapes[bits.TrailingZeros64(esc)].Add(1)
	}
}

func newTable(e *Engine, name string, schema *tuple.Schema, opts ...TableOption) (*Table, error) {
	var cfg tableConfig
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.heapInsertShards == 0 {
		cfg.heapInsertShards = e.heapShards
	}
	if schema != nil {
		// The table adopts a record layout on its schema (layout.go): it
		// owns a copy, so a schema handed to two tables adopts twice.
		var err error
		if schema, err = tuple.NewSchema(schema.Fields()...); err != nil {
			return nil, err
		}
	}
	return buildTable(e, name, schema, cfg)
}

// buildTable constructs a table from an already-resolved config — the
// shared tail of user-driven creation and WAL/manifest replay.
func buildTable(e *Engine, name string, schema *tuple.Schema, cfg tableConfig) (*Table, error) {
	if schema == nil {
		return nil, fmt.Errorf("core: table %q needs a schema", name)
	}
	var hopts []heap.Option
	if cfg.appendOnly {
		hopts = append(hopts, heap.AppendOnly())
	}
	if cfg.heapFillFactor != 0 {
		hopts = append(hopts, heap.WithFillFactor(cfg.heapFillFactor))
	}
	if cfg.heapInsertShards > 0 {
		hopts = append(hopts, heap.WithInsertShards(cfg.heapInsertShards))
	}
	// A negative count (explicit "automatic") passes no option: the
	// heap's own default applies.
	f, err := heap.NewFile(e.pool, hopts...)
	if err != nil {
		return nil, fmt.Errorf("core: creating heap for %q: %w", name, err)
	}
	return &Table{
		engine:  e,
		name:    name,
		schema:  schema,
		file:    f,
		cfg:     cfg,
		indexes: make(map[string]*Index),
	}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema: the table's own copy of the one it
// was created with, carrying the record layout it adopted, so it decodes
// the table's heap records.
func (t *Table) Schema() *tuple.Schema { return t.schema }

// Heap exposes the underlying heap file (stats, partition experiments).
func (t *Table) Heap() *heap.File { return t.file }

// Rows returns the live row count.
func (t *Table) Rows() int64 { return t.rows.Load() }

// Indexes returns the table's indexes by name.
func (t *Table) Indexes() map[string]*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]*Index, len(t.indexes))
	for k, v := range t.indexes {
		out[k] = v
	}
	return out
}

// Index returns the named index, or an error.
func (t *Table) Index(name string) (*Index, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, ok := t.indexes[name]
	if !ok {
		return nil, fmt.Errorf("core: table %q has no index %q", t.name, name)
	}
	return ix, nil
}

// Insert adds a row, maintaining all indexes, and returns its RID. It
// is a one-op Batch under the hood — multi-row ingest should build a
// Batch and call Apply, which amortizes the per-row descent and latch
// costs this wrapper pays in full.
//
// Insert is safe for concurrent use, and no stage of it serializes on
// a table-wide lock: the heap placement rides the heap file's sharded
// insert path (each inserting goroutine is affine to one of the heap's
// insert shards, see WithHeapInsertShards), and index maintenance rides
// the B+Tree's latch-crabbing write path, so parallel inserters contend
// per heap shard and per leaf page rather than per table. t.mu is only
// held shared, to pin the index set — it does not serialize writers
// against each other.
func (t *Table) Insert(row tuple.Row) (storage.RID, error) {
	var b Batch
	b.Insert(row)
	res, err := t.Apply(&b, WithResultRIDs())
	if err != nil {
		return storage.InvalidRID, err
	}
	return res.RIDs[0], nil
}

// Get fetches and decodes the row at rid.
func (t *Table) Get(rid storage.RID) (tuple.Row, error) {
	row, _, err := t.GetInto(nil, nil, rid)
	return row, err
}

// Update replaces the row at rid with newRow, returning the row's RID
// afterwards (it changes when the row no longer fits its page). Index
// entries follow, and every cached index is notified so stale cache
// entries are invalidated via the predicate log.
//
// Update is safe for concurrent use against distinct RIDs. Concurrent
// updates of the same RID are last-writer-wins per structure (heap and
// each index order independently); callers needing read-modify-write
// atomicity on one row must serialize above this layer. Like Insert it
// is a one-op Batch; batch updates ride Apply.
func (t *Table) Update(rid storage.RID, newRow tuple.Row) (storage.RID, error) {
	var b Batch
	b.Update(rid, newRow)
	res, err := t.Apply(&b, WithResultRIDs())
	if err != nil {
		return storage.InvalidRID, err
	}
	return res.RIDs[0], nil
}

// Delete removes the row at rid, maintaining indexes and invalidating
// affected cache entries. Heap slot reuse makes invalidation mandatory:
// a future tuple could receive the same RID, and a stale cache entry
// keyed by that RID would otherwise serve the old tuple's bytes.
// Index entries go first, then the heap row (via a one-op Batch), so a
// concurrent index reader can never hold an entry whose heap row is
// already gone.
func (t *Table) Delete(rid storage.RID) error {
	var b Batch
	b.Delete(rid)
	_, err := t.Apply(&b)
	return err
}

// Relocate moves the row at rid by deleting and reinserting it — the
// paper's Section 3.1 clustering primitive ("relocates hot tuples by
// deleting then appending them to the end of the table" when the heap
// is append-only). Indexes are updated to the new RID and cached
// indexes invalidated (RID reuse hazard). Returns the new RID.
func (t *Table) Relocate(rid storage.RID) (storage.RID, error) {
	row, err := t.Get(rid)
	if err != nil {
		return storage.InvalidRID, fmt.Errorf("core: relocate of %v: %w", rid, err)
	}
	// Delete-then-insert as one batch: the pipeline takes the old entries
	// out and frees the slot before the insert places and re-claims the
	// keys (see Batch), and the whole move rides Apply — so it is
	// WAL-logged like every other mutation instead of bypassing the log.
	var b Batch
	b.Delete(rid)
	b.Insert(row)
	res, err := t.Apply(&b, WithResultRIDs())
	if err != nil {
		return storage.InvalidRID, err
	}
	return res.RIDs[1], nil
}

// GetInto is Get decoding into dst when its capacity suffices, with
// buf as reusable scratch for the raw record; it returns the row and
// the grown scratch. Callers that thread both across calls fetch rows
// without per-row allocation (modulo string fields).
func (t *Table) GetInto(dst tuple.Row, buf []byte, rid storage.RID) (tuple.Row, []byte, error) {
	rec, err := t.file.GetInto(buf[:0], rid)
	if err != nil {
		return nil, buf, err
	}
	row, _, err := tuple.DecodeInto(dst, t.schema, rec)
	return row, rec[:0], err
}
