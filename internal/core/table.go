package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// TableOption configures table creation.
type TableOption func(*tableSpec)

// tableSpec is a table's definition: what CreateTable and its options
// set. A recCreateTable record is one, and a manifest entry embeds one,
// so creation, replay and reopen all build a table from the same value.
type tableSpec struct {
	Name           string          `json:"name"`
	Fields         []manifestField `json:"fields"`
	AppendOnly     bool            `json:"append_only,omitempty"`
	HeapFillFactor float64         `json:"heap_fill_factor,omitempty"`
}

// WithAppendOnlyHeap forces inserts to always extend the tail page,
// never refilling older pages' free space — the placement policy whose
// locality waste Section 3.1 measures.
func WithAppendOnlyHeap() TableOption {
	return func(s *tableSpec) { s.AppendOnly = true }
}

// WithHeapFillFactor reserves 1−ff of each heap page for update
// headroom and the Section 2.2 join cache.
func WithHeapFillFactor(ff float64) TableOption {
	return func(s *tableSpec) { s.HeapFillFactor = ff }
}

// Table is a heap-backed table plus its indexes.
type Table struct {
	engine *Engine
	name   string
	schema *tuple.Schema
	file   *heap.File
	spec   tableSpec

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
}

// openTable builds the table spec defines over the heap pages hold (nil:
// a new, empty heap). CreateTable, WAL replay and manifest reopen all
// build tables here.
func openTable(e *Engine, spec tableSpec, pages []storage.PageID) (*Table, error) {
	// The table adopts a record layout on its schema (layout.go): it owns
	// the schema built here, so two tables never share one.
	schema, err := tuple.NewSchema(fieldsFromManifest(spec.Fields)...)
	if err != nil {
		return nil, fmt.Errorf("core: table %q: %w", spec.Name, err)
	}
	var hopts []heap.Option
	if spec.AppendOnly {
		hopts = append(hopts, heap.AppendOnly())
	}
	if spec.HeapFillFactor != 0 {
		hopts = append(hopts, heap.WithFillFactor(spec.HeapFillFactor))
	}
	f, err := heap.Open(e.pool, pages, hopts...)
	if err != nil {
		return nil, fmt.Errorf("core: opening heap for %q: %w", spec.Name, err)
	}
	return &Table{
		engine:  e,
		name:    spec.Name,
		schema:  schema,
		file:    f,
		spec:    spec,
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
// a table-wide lock: the heap placement holds the heap file's insert
// mutex only while it places, and index maintenance rides the B+Tree's
// latch-crabbing write path, so parallel inserters contend on the heap
// lane and per leaf page rather than per table. t.mu is only held
// shared, to pin the index set — it does not serialize writers against
// each other.
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
// writes of the same RID are last-writer-wins per structure (heap and each
// index order independently; one that finds a moved row's old copy freed
// fails with storage.ErrDeleted, its new copy left behind): serialize
// above this layer. Like Insert it is a one-op Batch; batch updates ride Apply.
func (t *Table) Update(rid storage.RID, newRow tuple.Row) (storage.RID, error) {
	var b Batch
	b.Update(rid, newRow)
	res, err := t.Apply(&b, WithResultRIDs())
	if err != nil {
		return storage.InvalidRID, err
	}
	return res.RIDs[0], nil
}

// Relocate moves the row at rid to a new copy and returns its RID: the
// paper's Section 3.1 clustering primitive ("relocates hot tuples by
// deleting then appending them to the end of the table" when the heap
// is append-only). It is an update of the row to itself that always
// places a new copy, so it moves through the write stages as a
// relocating update does: the copy lands, every index entry is
// repointed to it (cached entries invalidated: RID reuse hazard), and
// only then is the old copy freed. A read of the row's key finds it
// throughout, and the move rides Apply, WAL-logged like every other
// mutation.
func (t *Table) Relocate(rid storage.RID) (storage.RID, error) {
	b := Batch{ops: []stagedOp{{kind: BatchUpdate, rid: rid, move: true}}}
	res, err := t.Apply(&b, WithResultRIDs())
	if err != nil {
		return storage.InvalidRID, err
	}
	return res.RIDs[0], nil
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
