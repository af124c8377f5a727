package partition

import (
	"fmt"

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
// The caller places each row: the paper's revision-table policy puts a
// page's latest revision in hot and every older one in cold.
type HotCold struct {
	hot, cold     *core.Table
	hotIx, coldIx *core.Index
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
	}, nil
}

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
