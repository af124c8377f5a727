package partition

import (
	"bytes"
	"fmt"
	"iter"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// HotCold manages a table split into a hot partition and a cold
// partition with identical schemas. The hot partition holds the tuples
// that receive nearly all accesses; because it is a small fraction of
// the data, *its index fits in RAM*, which is where the paper's 8.4×
// improvement comes from (27.1 GB → 1.4 GB in their Wikipedia
// instance).
//
// Lookups try the hot partition's index first and fall back to cold.
// MoveToHot/MoveToCold implement the paper's revision-table policy:
// when a new revision arrives it enters hot and displaces the page's
// previous latest revision to cold.
type HotCold struct {
	hot, cold     *core.Table
	hotIx, coldIx *core.Index
	fwd           *Forwarding
	keyFields     []string
}

// Config for a hot/cold split.
type Config struct {
	// Engine hosts both partitions.
	Engine *core.Engine
	// Name prefixes the partition tables ("<name>_hot", "<name>_cold").
	Name string
	// Schema is shared by both partitions.
	Schema *tuple.Schema
	// KeyFields define the unique lookup index built on each partition.
	KeyFields []string
	// FillFactor for partition indexes (0 = default 0.68).
	FillFactor float64
	// TableOptions apply to both partition tables (heap fill factor).
	// Append-only placement is always forced last — the paper's
	// clustering policy relocates tuples to "the end of the table".
	// Ingest parallelism in a hot/cold pair comes from the two
	// partitions' independent heaps and the latch-crabbed partition
	// indexes.
	TableOptions []core.TableOption
}

// New creates an empty hot/cold pair with lookup indexes.
func New(cfg Config) (*HotCold, error) {
	if cfg.Engine == nil || cfg.Schema == nil || len(cfg.KeyFields) == 0 {
		return nil, fmt.Errorf("partition: incomplete config")
	}
	ff := cfg.FillFactor
	if ff == 0 {
		ff = 0.68
	}
	// The forced append-only option goes last so it wins over anything
	// in cfg.TableOptions; the full-slice expression keeps the two
	// appends from sharing a backing array.
	topts := cfg.TableOptions[:len(cfg.TableOptions):len(cfg.TableOptions)]
	hot, err := cfg.Engine.CreateTable(cfg.Name+"_hot", cfg.Schema, append(topts, core.WithAppendOnlyHeap())...)
	if err != nil {
		return nil, err
	}
	cold, err := cfg.Engine.CreateTable(cfg.Name+"_cold", cfg.Schema, append(topts, core.WithAppendOnlyHeap())...)
	if err != nil {
		return nil, err
	}
	hotIx, err := hot.CreateIndex("lookup", cfg.KeyFields, core.WithFillFactor(ff))
	if err != nil {
		return nil, err
	}
	coldIx, err := cold.CreateIndex("lookup", cfg.KeyFields, core.WithFillFactor(ff))
	if err != nil {
		return nil, err
	}
	return &HotCold{
		hot: hot, cold: cold,
		hotIx: hotIx, coldIx: coldIx,
		fwd:       NewForwarding(),
		keyFields: cfg.KeyFields,
	}, nil
}

// Hot returns the hot partition table.
func (hc *HotCold) Hot() *core.Table { return hc.hot }

// Cold returns the cold partition table.
func (hc *HotCold) Cold() *core.Table { return hc.cold }

// Forwarding returns the forwarding table for relocated tuples.
func (hc *HotCold) Forwarding() *Forwarding { return hc.fwd }

// InsertHot adds a row to the hot partition. Safe for concurrent use;
// parallel ingest into the two partitions never contends — each has
// its own heap tail and index — and within one partition inserters
// contend only on the append-only heap's single tail and the crabbed
// index leaves they touch.
func (hc *HotCold) InsertHot(row tuple.Row) (storage.RID, error) {
	return hc.hot.Insert(row)
}

// InsertCold adds a row to the cold partition. See InsertHot for the
// concurrency contract.
func (hc *HotCold) InsertCold(row tuple.Row) (storage.RID, error) {
	return hc.cold.Insert(row)
}

// ApplyHot executes a batch against the hot partition — the batched
// counterpart of InsertHot and of per-row Update/Delete on Hot().
// Updates that relocate a row (the partitions are append-only, so any
// growth moves it to the tail) are recorded in the forwarding table
// automatically, keeping stale RIDs resolvable. Batch RIDs must
// address the hot partition; core.Table.Apply's per-op contract
// applies unchanged.
func (hc *HotCold) ApplyHot(b *core.Batch, opts ...core.ApplyOption) (core.Result, error) {
	return hc.apply(hc.hot, b, opts)
}

// ApplyCold is ApplyHot against the cold partition.
func (hc *HotCold) ApplyCold(b *core.Batch, opts ...core.ApplyOption) (core.Result, error) {
	return hc.apply(hc.cold, b, opts)
}

func (hc *HotCold) apply(t *core.Table, b *core.Batch, opts []core.ApplyOption) (core.Result, error) {
	// Forwarding needs per-op RIDs; forcing the option last wins over a
	// caller's (idempotent either way). The full-slice expression keeps
	// the append from sharing a caller's backing array.
	res, err := t.Apply(b, append(opts[:len(opts):len(opts)], core.WithResultRIDs())...)
	for i := 0; i < b.Len() && i < len(res.RIDs); i++ {
		op := b.Op(i)
		if op.Kind == core.BatchUpdate && res.RIDs[i].Valid() && res.RIDs[i] != op.RID {
			hc.fwd.Record(op.RID, res.RIDs[i])
		}
	}
	return res, err
}

// Lookup finds a row by key, trying hot first. The second return
// reports whether it was found in the hot partition.
func (hc *HotCold) Lookup(keyVals ...tuple.Value) (tuple.Row, bool, error) {
	row, res, err := hc.hotIx.Lookup(nil, keyVals...)
	if err != nil {
		return nil, false, err
	}
	if res.Found {
		return row, true, nil
	}
	row, res, err = hc.coldIx.Lookup(nil, keyVals...)
	if err != nil {
		return nil, false, err
	}
	if !res.Found {
		return nil, false, nil
	}
	return row, false, nil
}

// Cursor merges the hot and cold partitions' index cursors into one
// key-ordered stream. Each row reports which partition served it, so
// callers can observe the paper's asymmetry (hot rows answered from a
// RAM-resident index) without reassembling the split themselves.
type Cursor struct {
	hot, cold     *core.Cursor
	hotOK, coldOK bool
	primed        bool
	fromHot       bool
	served        int64
	err           error
}

// Query opens a merged key-ordered cursor over both partitions. The
// options are applied to each partition's index query (so WithLimit
// bounds each partition's contribution, not the merged total); key
// bounds, projections, and WithReverse behave as on core.Cursor — a
// reverse merge yields descending key order.
func (hc *HotCold) Query(opts ...core.QueryOption) (*Cursor, error) {
	// The forced index goes last so a stray WithIndex in opts cannot
	// redirect the partition scans (later options win); the full-slice
	// expression keeps the two appends from sharing a backing array.
	hotCur, err := hc.hot.Query(append(opts[:len(opts):len(opts)], core.WithIndex("lookup"))...)
	if err != nil {
		return nil, err
	}
	coldCur, err := hc.cold.Query(append(opts[:len(opts):len(opts)], core.WithIndex("lookup"))...)
	if err != nil {
		hotCur.Close()
		return nil, err
	}
	return &Cursor{hot: hotCur, cold: coldCur}, nil
}

// Next advances to the next row in merged key order.
func (c *Cursor) Next() bool {
	if c.err != nil {
		return false
	}
	if !c.primed {
		c.hotOK, c.coldOK = c.hot.Next(), c.cold.Next()
		c.primed = true
	} else if c.fromHot {
		c.hotOK = c.hot.Next()
	} else {
		c.coldOK = c.cold.Next()
	}
	if err := c.hot.Err(); err != nil {
		c.err = err
		return false
	}
	if err := c.cold.Err(); err != nil {
		c.err = err
		return false
	}
	switch {
	case c.hotOK && c.coldOK:
		// Serve the smaller key first — the larger when both child
		// cursors iterate descending.
		cmp := bytes.Compare(c.hot.Key(), c.cold.Key())
		if c.hot.Reverse() {
			c.fromHot = cmp >= 0
		} else {
			c.fromHot = cmp <= 0
		}
	case c.hotOK:
		c.fromHot = true
	case c.coldOK:
		c.fromHot = false
	default:
		return false
	}
	c.served++
	return true
}

// side returns the cursor currently serving.
func (c *Cursor) side() *core.Cursor {
	if c.fromHot {
		return c.hot
	}
	return c.cold
}

// Row returns the current row (cursor scratch: Clone to retain).
func (c *Cursor) Row() tuple.Row { return c.side().Row() }

// RID returns the current row's address within its partition.
func (c *Cursor) RID() storage.RID { return c.side().RID() }

// Hot reports whether the current row came from the hot partition.
func (c *Cursor) Hot() bool { return c.fromHot }

// Err returns the first error either partition's cursor hit.
func (c *Cursor) Err() error { return c.err }

// Stats returns the merged answer-path counters: Rows is the number of
// rows this cursor served; the cache/heap/leaf counters are the sums
// over both partitions' cursors (which may run one row ahead of the
// merge — the lookahead is counted where it was paid). Same shape as
// core.Cursor.Stats, so merged and single-partition scans are compared
// directly.
func (c *Cursor) Stats() core.QueryStats {
	h, cd := c.hot.Stats(), c.cold.Stats()
	return core.QueryStats{
		Rows:        c.served,
		CacheHits:   h.CacheHits + cd.CacheHits,
		HeapReads:   h.HeapReads + cd.HeapReads,
		LeafFetches: h.LeafFetches + cd.LeafFetches,
	}
}

// All adapts the merged cursor to a range-over-func iterator, closing
// both partition cursors when the loop ends (early break and panic
// included) — the same contract as core.Cursor.All, so the merged
// cursor is a drop-in for range-over-func callers. RIDs address rows
// within their own partition; check Err afterwards.
func (c *Cursor) All() iter.Seq2[storage.RID, tuple.Row] {
	return func(yield func(storage.RID, tuple.Row) bool) {
		defer c.Close()
		for c.Next() {
			if !yield(c.RID(), c.Row()) {
				return
			}
		}
	}
}

// Close releases both partitions' cursors. Idempotent.
func (c *Cursor) Close() error {
	herr := c.hot.Close()
	cerr := c.cold.Close()
	if c.err == nil {
		if herr != nil {
			c.err = herr
		} else if cerr != nil {
			c.err = cerr
		}
	}
	return c.err
}

// Demote moves the row with the given key from hot to cold — the
// paper's policy when a newly inserted revision replaces the previously
// hot one. Returns the row's new RID in the cold partition.
//
// Each step (lookup, delete, insert) is individually thread-safe, but
// the move is not atomic: a concurrent Lookup can miss the row in the
// window between partitions. Run demotions from one maintenance
// goroutine, or serialize them per key above this layer.
func (hc *HotCold) Demote(keyVals ...tuple.Value) (storage.RID, error) {
	rid, found, err := hc.hotIx.LookupRID(keyVals...)
	if err != nil {
		return storage.InvalidRID, err
	}
	if !found {
		return storage.InvalidRID, fmt.Errorf("partition: demote: key not in hot partition")
	}
	row, err := hc.hot.Get(rid)
	if err != nil {
		return storage.InvalidRID, err
	}
	if err := hc.hot.Delete(rid); err != nil {
		return storage.InvalidRID, err
	}
	newRID, err := hc.cold.Insert(row)
	if err != nil {
		return storage.InvalidRID, err
	}
	hc.fwd.Record(rid, newRID)
	return newRID, nil
}

// Promote moves the row with the given key from cold to hot.
func (hc *HotCold) Promote(keyVals ...tuple.Value) (storage.RID, error) {
	rid, found, err := hc.coldIx.LookupRID(keyVals...)
	if err != nil {
		return storage.InvalidRID, err
	}
	if !found {
		return storage.InvalidRID, fmt.Errorf("partition: promote: key not in cold partition")
	}
	row, err := hc.cold.Get(rid)
	if err != nil {
		return storage.InvalidRID, err
	}
	if err := hc.cold.Delete(rid); err != nil {
		return storage.InvalidRID, err
	}
	newRID, err := hc.hot.Insert(row)
	if err != nil {
		return storage.InvalidRID, err
	}
	hc.fwd.Record(rid, newRID)
	return newRID, nil
}

// Stats reports the size asymmetry the technique creates.
type Stats struct {
	HotRows, ColdRows             int64
	HotIndexBytes, ColdIndexBytes int64
	HotHeapPages, ColdHeapPages   int
}

// Stats collects partition sizes.
func (hc *HotCold) Stats() (Stats, error) {
	var st Stats
	st.HotRows = hc.hot.Rows()
	st.ColdRows = hc.cold.Rows()
	hts, err := hc.hotIx.Tree().Stats()
	if err != nil {
		return st, err
	}
	cts, err := hc.coldIx.Tree().Stats()
	if err != nil {
		return st, err
	}
	st.HotIndexBytes = hts.SizeBytes
	st.ColdIndexBytes = cts.SizeBytes
	st.HotHeapPages = hc.hot.Heap().NumPages()
	st.ColdHeapPages = hc.cold.Heap().NumPages()
	return st, nil
}
