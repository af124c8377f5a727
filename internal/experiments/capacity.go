package experiments

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/idxcache"
	"repro/internal/tuple"
	"repro/internal/wiki"
	"repro/internal/workload"
)

// CapacityConfig parameterizes the Section 2.1.4 capacity analysis.
type CapacityConfig struct {
	Pages      int // rows in the synthetic page table
	FillFactor float64
	PageSize   int
	Seed       int64
	// ItemsRows is the row count of the second fixture, an index shaped
	// like the served benchmark's (0: skip it).
	ItemsRows int
}

// DefaultCapacityConfig mirrors the paper's parameters, and the served
// benchmark's 200,000 rows.
func DefaultCapacityConfig() CapacityConfig {
	return CapacityConfig{Pages: 20000, FillFactor: 0.68, PageSize: 8192, Seed: 1, ItemsRows: 200_000}
}

// CacheRoom is the §2.1 room an index's leaves offer: whole cache slots
// at the entry sizes the cache cuts them at (a page's tag width plus
// the payload width).
type CacheRoom struct {
	Rows       int64 // keys in the index
	IndexPages int
	LeafPages  int
	LeafSlack  int64 // free bytes across leaves
	Slots      int64 // whole cache slots across leaves
	// EntryMin and EntryMax bound the entry sizes idxcache.SlotsIn
	// counted Slots at.
	EntryMin, EntryMax int
}

// slotsPerKey returns Slots per indexed key.
func (r CacheRoom) slotsPerKey() float64 {
	if r.Rows == 0 {
		return 0
	}
	return float64(r.Slots) / float64(r.Rows)
}

// entrySizes renders the entry sizes the slots were counted at.
func (r CacheRoom) entrySizes() string {
	if r.EntryMin == r.EntryMax {
		return strconv.Itoa(r.EntryMin)
	}
	return fmt.Sprintf("%d–%d", r.EntryMin, r.EntryMax)
}

// measureRoom counts a tree's cache room leaf by leaf.
func measureRoom(tree *btree.Tree, cache *idxcache.Cache) (CacheRoom, error) {
	ts, err := tree.Stats()
	if err != nil {
		return CacheRoom{}, err
	}
	r := CacheRoom{Rows: ts.Keys, IndexPages: ts.Pages, LeafPages: ts.LeafPages, LeafSlack: ts.LeafFreeBytes}
	err = tree.VisitAllLeaves(func(l *btree.Leaf) bool {
		slots, e := cache.SlotsIn(l)
		r.Slots += int64(slots)
		if r.EntryMin == 0 || e < r.EntryMin {
			r.EntryMin = e
		}
		r.EntryMax = max(r.EntryMax, e)
		return true
	})
	return r, err
}

// CapacityResult reports both the measured capacity of a real
// bulk-built index and the paper's closed-form estimate evaluated with
// their published inputs.
type CapacityResult struct {
	Config  CapacityConfig
	Fixture FixtureConfig // the page table name_title is built on
	// Measured on the real index built over the synthetic page table:
	MeasuredKeyBytes int64 // the keys' logical payload, each key whole
	// MeasuredStoredKeyBytes is what the leaves store of it: suffixes
	// plus one shared prefix per page.
	MeasuredStoredKeyBytes int64
	MeasuredFill           float64
	Measured               CacheRoom
	MeasuredCoverage       float64 // slots / table rows
	// Items is the room of the benchmark-shaped index (ItemsRows rows).
	Items CacheRoom
	// PaperEstimate evaluates the closed form with the paper's inputs
	// (360 MB of keys, 68% fill, 25-byte items, ~11M page rows).
	PaperEstimate idxcache.CapacityEstimate
}

// RunCapacity builds the name_title index on a synthetic page table,
// counts actual cache slots leaf by leaf, and evaluates the closed form
// with the paper's numbers for comparison. With ItemsRows set it also
// measures an index shaped like the served benchmark's (runItemsRoom).
func RunCapacity(cfg CapacityConfig) (_ CapacityResult, err error) {
	res := CapacityResult{Config: cfg, Fixture: FixtureConfig{Shape: PageShape, Pages: cfg.Pages, Seed: cfg.Seed,
		PageSize: cfg.PageSize, PoolPages: 1 << 16}}
	f, err := NewFixture(res.Fixture)
	if err != nil {
		return CapacityResult{}, err
	}
	defer closeEngine(f.Engine, &err)
	ix, err := f.Table.CreateIndex("name_title", []string{"page_namespace", "page_title"},
		core.WithFillFactor(cfg.FillFactor),
		core.WithCache(wiki.CachedPageFields()...))
	if err != nil {
		return CapacityResult{}, err
	}
	ts, err := ix.Tree().Stats()
	if err != nil {
		return CapacityResult{}, err
	}
	res.MeasuredKeyBytes = ts.KeyBytes
	res.MeasuredStoredKeyBytes = ts.StoredKeyBytes
	res.MeasuredFill = ts.MeanLeafFill
	// Count the room at the entry size the cache cuts once it holds
	// values, as runItemsRoom does: an unwarmed leaf counts at its next
	// Prepare's guess.
	if _, err := ix.WarmCache(); err != nil {
		return CapacityResult{}, err
	}
	if res.Measured, err = measureRoom(ix.Tree(), ix.Cache()); err != nil {
		return CapacityResult{}, err
	}
	res.MeasuredCoverage = float64(res.Measured.Slots) / float64(cfg.Pages)
	if cfg.ItemsRows > 0 {
		if res.Items, err = runItemsRoom(cfg); err != nil {
			return CapacityResult{}, err
		}
	}

	res.PaperEstimate = idxcache.CapacityEstimate{
		KeyBytes:     360 << 20,
		FillFactor:   0.68,
		PageSize:     8192,
		PageOverhead: 44,
		ItemSize:     25,
		TableRows:    11_000_000,
	}
	return res, nil
}

// The benchmark-shaped fixture: benchmark/'s items table and its load,
// every row at version 0.
const (
	itemsLoadBatch = 256
	itemsLoadSeed  = 20110109 // the benchmark's load order
	itemsTSBase    = 1_300_000_000
	itemsFiller    = "no bits left behind: unused space in index leaves, slack in fixed-width encodings and cold " +
		"tuples in hot pages are all storage the engine already paid for; recycle them before buying more. " +
		"no bits left behind: unused space in index leaves, slack in fixed-width encodings and cold tuples."
)

// itemsMix is the benchmark's splitmix64 over an id at version 0.
func itemsMix(id int64) uint64 {
	x := uint64(id)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// itemsRow is the benchmark's row for id at version 0.
func itemsRow(id int64) tuple.Row {
	h := itemsMix(id)
	name := []byte("item-0000000000000000000")
	s := strconv.FormatInt(id, 10)
	copy(name[len(name)-len(s):], s)
	const digits = "0123456789abcdef"
	var hex [16]byte
	for i := range hex {
		hex[i] = digits[h>>(60-4*uint(i))&15]
	}
	off, bodyLen := int(h%64), 80+int(uint64(id)%41)
	return tuple.Row{
		tuple.Int64(id),
		tuple.Int32(int32(h & 1023)),
		tuple.Bool(h&(1<<20) != 0),
		tuple.TimestampUnix(itemsTSBase),
		tuple.String(string(name)),
		tuple.String(string(hex[:]) + itemsFiller[off:off+bodyLen-16]),
		tuple.Int64(int64(h ^ 0x5DEECE66D)),
	}
}

// runItemsRoom loads ItemsRows rows of the benchmark's items table in
// its shuffled order, itemsLoadBatch rows per Apply, into a table whose
// unique by_id index caches score, flag and ts, then warms the cache —
// which moves its payload to the layout the table adopted during the
// load — and measures the room.
func runItemsRoom(cfg CapacityConfig) (_ CacheRoom, err error) {
	e, err := FixtureConfig{PageSize: cfg.PageSize, PoolPages: cfg.ItemsRows/16 + 1024}.open()
	if err != nil {
		return CacheRoom{}, err
	}
	defer closeEngine(e, &err)
	tb, err := e.CreateTable("items", tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "score", Kind: tuple.KindInt32},
		tuple.Field{Name: "flag", Kind: tuple.KindBool},
		tuple.Field{Name: "ts", Kind: tuple.KindTimestamp},
		tuple.Field{Name: "name", Kind: tuple.KindString},
		tuple.Field{Name: "body", Kind: tuple.KindString},
		tuple.Field{Name: "chk", Kind: tuple.KindInt64},
	))
	if err != nil {
		return CacheRoom{}, err
	}
	ix, err := tb.CreateIndex("by_id", []string{"id"}, core.WithCache("score", "flag", "ts"))
	if err != nil {
		return CacheRoom{}, err
	}
	order := workload.Shuffle(workload.NewRand(itemsLoadSeed), cfg.ItemsRows)
	var b core.Batch
	for at := 0; at < len(order); at += itemsLoadBatch {
		b.Reset()
		for _, id := range order[at:min(at+itemsLoadBatch, len(order))] {
			b.Insert(itemsRow(int64(id)))
		}
		if _, err := tb.Apply(&b); err != nil {
			return CacheRoom{}, err
		}
	}
	if _, err := ix.WarmCache(); err != nil {
		return CacheRoom{}, err
	}
	return measureRoom(ix.Tree(), ix.Cache())
}

// Print renders the measured and closed-form numbers side by side.
func (r CapacityResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Section 2.1.4: index cache capacity analysis\n")
	fmt.Fprintf(w, "%v\n", r.Fixture)
	fmt.Fprintf(w, "measured on synthetic name_title index (%d rows, fill %.2f):\n",
		r.Config.Pages, r.Config.FillFactor)
	fmt.Fprintf(w, "  key bytes      %d (stored %d: suffixes plus one prefix per leaf)\n",
		r.MeasuredKeyBytes, r.MeasuredStoredKeyBytes)
	fmt.Fprintf(w, "  leaf pages     %d (mean fill %.3f)\n", r.Measured.LeafPages, r.MeasuredFill)
	fmt.Fprintf(w, "  cache slots    %d (entry size %s)\n", r.Measured.Slots, r.Measured.entrySizes())
	fmt.Fprintf(w, "  coverage       %.1f%% of table rows\n", 100*r.MeasuredCoverage)
	if it := r.Items; r.Config.ItemsRows > 0 {
		fmt.Fprintf(w, "measured on the benchmark's items table (%d rows loaded shuffled, %d per Apply; by_id caches score, flag, ts):\n",
			r.Config.ItemsRows, itemsLoadBatch)
		fmt.Fprintf(w, "  index pages    %d (%d leaves)\n", it.IndexPages, it.LeafPages)
		fmt.Fprintf(w, "  leaf slack     %d bytes\n", it.LeafSlack)
		fmt.Fprintf(w, "  whole slots    %d (entry size %s)\n", it.Slots, it.entrySizes())
		fmt.Fprintf(w, "  slots per key  %.2f\n", it.slotsPerKey())
	}
	fmt.Fprintf(w, "closed form with the paper's inputs (360MB keys, 68%% fill, 25B items, 11M rows):\n")
	fmt.Fprintf(w, "  %s\n", r.PaperEstimate)
	fmt.Fprintf(w, "  (paper: ~7.9M items, >70%% of page-table tuples)\n")
}
