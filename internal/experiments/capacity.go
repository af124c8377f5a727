package experiments

import (
	"fmt"
	"io"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/idxcache"
	"repro/internal/wiki"
)

// CapacityConfig parameterizes the Section 2.1.4 capacity analysis.
type CapacityConfig struct {
	Pages      int // rows in the synthetic page table
	FillFactor float64
	ItemSize   int // cache entry size; paper: 25 bytes
	PageSize   int
	Seed       int64
}

// DefaultCapacityConfig mirrors the paper's parameters.
func DefaultCapacityConfig() CapacityConfig {
	return CapacityConfig{Pages: 20000, FillFactor: 0.68, ItemSize: 25, PageSize: 8192, Seed: 1}
}

// CapacityResult reports both the measured capacity of a real
// bulk-built index and the paper's closed-form estimate evaluated with
// their published inputs.
type CapacityResult struct {
	Config CapacityConfig
	// Measured on the real index built over the synthetic page table:
	MeasuredKeyBytes int64 // the keys' logical payload, each key whole
	// MeasuredStoredKeyBytes is what the leaves store of it: suffixes
	// plus one shared prefix per page.
	MeasuredStoredKeyBytes int64
	MeasuredFill           float64
	MeasuredLeafPages      int
	MeasuredSlots          int64   // actual cache slots across all leaves
	MeasuredCoverage       float64 // slots / table rows
	// PaperEstimate evaluates the closed form with the paper's inputs
	// (360 MB of keys, 68% fill, 25-byte items, ~11M page rows).
	PaperEstimate idxcache.CapacityEstimate
}

// RunCapacity builds the name_title index on a synthetic page table,
// counts actual cache slots leaf by leaf, and evaluates the closed form
// with the paper's numbers for comparison.
func RunCapacity(cfg CapacityConfig) (_ CapacityResult, err error) {
	e, err := core.NewEngine(core.Options{PageSize: cfg.PageSize, BufferPoolPages: 1 << 16})
	if err != nil {
		return CapacityResult{}, err
	}
	defer closeEngine(e, &err)
	tb, err := e.CreateTable("page", wiki.PageSchema())
	if err != nil {
		return CapacityResult{}, err
	}
	gen := wiki.NewGenerator(wiki.Config{Pages: cfg.Pages, RevisionsPerPage: 1, Alpha: 0.5, Seed: cfg.Seed})
	for i := 0; i < cfg.Pages; i++ {
		if _, err := tb.Insert(gen.PageRow(i, int64(i))); err != nil {
			return CapacityResult{}, err
		}
	}
	ix, err := tb.CreateIndex("name_title", []string{"page_namespace", "page_title"},
		core.WithFillFactor(cfg.FillFactor),
		core.WithCache(wiki.CachedPageFields()...))
	if err != nil {
		return CapacityResult{}, err
	}
	ts, err := ix.Tree().Stats()
	if err != nil {
		return CapacityResult{}, err
	}
	res := CapacityResult{Config: cfg}
	res.MeasuredKeyBytes = ts.KeyBytes
	res.MeasuredStoredKeyBytes = ts.StoredKeyBytes
	res.MeasuredFill = ts.MeanLeafFill
	res.MeasuredLeafPages = ts.LeafPages

	cache := ix.Cache()
	var slots int64
	err = ix.Tree().VisitAllLeaves(func(l *btree.Leaf) bool {
		slots += int64(cache.SlotsIn(l))
		return true
	})
	if err != nil {
		return CapacityResult{}, err
	}
	res.MeasuredSlots = slots
	res.MeasuredCoverage = float64(slots) / float64(cfg.Pages)

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

// Print renders the measured and closed-form numbers side by side.
func (r CapacityResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Section 2.1.4: index cache capacity analysis\n")
	fmt.Fprintf(w, "measured on synthetic name_title index (%d rows, fill %.2f):\n",
		r.Config.Pages, r.Config.FillFactor)
	fmt.Fprintf(w, "  key bytes      %d (stored %d: suffixes plus one prefix per leaf)\n",
		r.MeasuredKeyBytes, r.MeasuredStoredKeyBytes)
	fmt.Fprintf(w, "  leaf pages     %d (mean fill %.3f)\n", r.MeasuredLeafPages, r.MeasuredFill)
	fmt.Fprintf(w, "  cache slots    %d (entry size %d)\n", r.MeasuredSlots, r.Config.ItemSize)
	fmt.Fprintf(w, "  coverage       %.1f%% of table rows\n", 100*r.MeasuredCoverage)
	fmt.Fprintf(w, "closed form with the paper's inputs (360MB keys, 68%% fill, 25B items, 11M rows):\n")
	fmt.Fprintf(w, "  %s\n", r.PaperEstimate)
	fmt.Fprintf(w, "  (paper: ~7.9M items, >70%% of page-table tuples)\n")
}
