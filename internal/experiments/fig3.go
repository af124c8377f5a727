package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wiki"
)

// Fig3Config parameterizes the Figure 3 experiment: cost per query on
// the revision table for 0% / 54% / 100% clustering and a hot
// partition.
type Fig3Config struct {
	Pages            int // articles (hot tuples = one per article)
	RevisionsPerPage int // history length → hot fraction ≈ 1/this
	Queries          int
	HotProb          float64 // paper: 0.999
	BufferPoolPages  int     // deliberately smaller than the working set
	PageSize         int
	Seed             int64
	Cost             metrics.CostModel
}

// DefaultFig3Config sizes the table so that, like the paper's setup,
// neither the full heap nor the full index fits in the buffer pool,
// but the hot partition (heap + index) does.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		Pages:            2000,
		RevisionsPerPage: 20,
		Queries:          20000,
		HotProb:          0.999,
		BufferPoolPages:  120,
		PageSize:         4096,
		Seed:             1,
		Cost:             metrics.DefaultCostModel(),
	}
}

// Fig3Point is one bar of the figure.
type Fig3Point struct {
	Label string
	// MsPerQuery is the simulated cost: disk reads × DiskRead + buffer
	// accesses × BufferPoolAccess + index probe, averaged per query.
	MsPerQuery float64
	// DiskReadsPerQuery is the underlying I/O count.
	DiskReadsPerQuery float64
	// IndexBytes is the size of the index the workload runs against
	// (hot+cold for the partitioned config).
	IndexBytes int64
	// HotHeapUtilization is the mean utilization of pages holding hot
	// tuples before/after clustering (Section 3.1's "2%" diagnosis).
	Speedup float64 // vs the 0% baseline
}

// Fig3Result is the full bar set.
type Fig3Result struct {
	Config Fig3Config
	Points []Fig3Point
	// BaselineHotScatter is the fraction of heap pages containing at
	// least one hot tuple before clustering — the paper's diagnosis that
	// hot tuples are spread over nearly all pages.
	BaselineHotScatter float64
	// IndexShrinkFactor is full-index size / hot-partition-index size
	// (the paper's 27.1 GB → 1.4 GB ≈ 19×).
	IndexShrinkFactor float64
}

// builtTable bundles one constructed revision-table configuration.
type builtTable struct {
	engine *core.Engine
	index  *core.Index
	revs   []wiki.Revision
	latest []int
	keyOf  func(revIdx int) tuple.Value
}

// RunFig3 builds the revision table four times — unclustered, 54%
// clustered, fully clustered, and hot/cold partitioned — and replays
// the same 99.9%-hot trace against each with a constrained buffer pool.
func RunFig3(cfg Fig3Config) (Fig3Result, error) {
	res := Fig3Result{Config: cfg}

	// build constructs the revision table and its rev_id index, then
	// clusters the given fraction of hot tuples.
	build := func(clusterFrac float64) (*builtTable, *core.Engine, error) {
		e, err := core.NewEngine(core.Options{
			PageSize:        cfg.PageSize,
			BufferPoolPages: cfg.BufferPoolPages,
			CountIO:         true,
		})
		if err != nil {
			return nil, nil, err
		}
		tb, err := e.CreateTable("revision", wiki.RevisionSchema(), core.WithAppendOnlyHeap())
		if err != nil {
			return nil, nil, err
		}
		gen := wiki.NewGenerator(wiki.Config{
			Pages: cfg.Pages, RevisionsPerPage: cfg.RevisionsPerPage,
			Alpha: 0.5, Seed: cfg.Seed,
		})
		revs, latest := gen.Revisions()
		rids := make([]storage.RID, len(revs))
		for i, r := range revs {
			rid, err := tb.Insert(r.Row)
			if err != nil {
				return nil, nil, err
			}
			rids[i] = rid
		}
		ix, err := tb.CreateIndex("rev_id", []string{"rev_id"}, core.WithFillFactor(0.68))
		if err != nil {
			return nil, nil, err
		}
		if clusterFrac > 0 {
			hot := make([]storage.RID, 0, len(latest))
			for _, idx := range latest {
				hot = append(hot, rids[idx])
			}
			if _, err := partition.ClusterFraction(tb, hot, clusterFrac); err != nil {
				return nil, nil, err
			}
		}
		bt := &builtTable{
			engine: e, index: ix, revs: revs, latest: latest,
			keyOf: func(revIdx int) tuple.Value {
				return revs[revIdx].Row[0] // rev_id
			},
		}
		return bt, e, nil
	}

	// replay runs the trace and converts I/O counts into simulated time.
	replay := func(bt *builtTable, lookup func(revIdx int) error) (Fig3Point, error) {
		gen := wiki.NewGenerator(wiki.Config{
			Pages: cfg.Pages, RevisionsPerPage: cfg.RevisionsPerPage,
			Alpha: 0.5, Seed: cfg.Seed + 99,
		})
		trace := gen.RevisionTrace(cfg.Queries, cfg.HotProb, bt.revs, bt.latest)
		// Warm: one pass over the hot set so steady state is measured.
		for _, idx := range bt.latest {
			if err := lookup(idx); err != nil {
				return Fig3Point{}, err
			}
		}
		counter := bt.engine.IOCounter()
		counter.ResetCounts()
		bt.engine.Pool().ResetStats()
		for _, idx := range trace {
			if err := lookup(idx); err != nil {
				return Fig3Point{}, err
			}
		}
		reads := counter.Reads()
		poolStats := bt.engine.Pool().Stats()
		accesses := poolStats.Hits + poolStats.Misses
		totalCost := cfg.Cost.IndexProbe.Seconds()*float64(cfg.Queries) +
			cfg.Cost.BufferPoolAccess.Seconds()*float64(accesses) +
			cfg.Cost.DiskRead.Seconds()*float64(reads)
		return Fig3Point{
			MsPerQuery:        totalCost / float64(cfg.Queries) * 1000,
			DiskReadsPerQuery: float64(reads) / float64(cfg.Queries),
		}, nil
	}

	// Configurations 0%, 54%, 100%.
	var fullIndexBytes int64
	for _, c := range []struct {
		label string
		frac  float64
	}{{"0%", 0}, {"54%", 0.54}, {"100%", 1.0}} {
		bt, e, err := build(c.frac)
		if err != nil {
			return Fig3Result{}, err
		}
		if c.frac == 0 {
			scatter, err := hotScatter(bt)
			if err != nil {
				e.Close()
				return Fig3Result{}, err
			}
			res.BaselineHotScatter = scatter
		}
		point, err := replay(bt, func(revIdx int) error {
			_, lr, err := bt.index.Lookup(nil, bt.keyOf(revIdx))
			if err != nil {
				return err
			}
			if !lr.Found {
				return fmt.Errorf("experiments: rev %d not found", revIdx)
			}
			return nil
		})
		if err != nil {
			e.Close()
			return Fig3Result{}, err
		}
		point.Label = c.label
		ts, err := bt.index.Tree().Stats()
		if err != nil {
			e.Close()
			return Fig3Result{}, err
		}
		point.IndexBytes = ts.SizeBytes
		if c.frac == 0 {
			fullIndexBytes = ts.SizeBytes
		}
		res.Points = append(res.Points, point)
		if err := e.Close(); err != nil {
			return Fig3Result{}, err
		}
	}

	// Partitioned configuration: hot rows into their own table+index.
	{
		e, err := core.NewEngine(core.Options{
			PageSize:        cfg.PageSize,
			BufferPoolPages: cfg.BufferPoolPages,
			CountIO:         true,
		})
		if err != nil {
			return Fig3Result{}, err
		}
		hc, err := partition.New(partition.Config{
			Engine: e, Name: "revision", Schema: wiki.RevisionSchema(),
			KeyFields: []string{"rev_id"},
		})
		if err != nil {
			e.Close()
			return Fig3Result{}, err
		}
		gen := wiki.NewGenerator(wiki.Config{
			Pages: cfg.Pages, RevisionsPerPage: cfg.RevisionsPerPage,
			Alpha: 0.5, Seed: cfg.Seed,
		})
		revs, latest := gen.Revisions()
		for _, r := range revs {
			var err error
			if r.Latest {
				_, err = hc.InsertHot(r.Row)
			} else {
				_, err = hc.InsertCold(r.Row)
			}
			if err != nil {
				e.Close()
				return Fig3Result{}, err
			}
		}
		bt := &builtTable{engine: e, revs: revs, latest: latest,
			keyOf: func(revIdx int) tuple.Value { return revs[revIdx].Row[0] }}
		point, err := replay(bt, func(revIdx int) error {
			_, _, err := hc.Lookup(bt.keyOf(revIdx))
			return err
		})
		if err != nil {
			e.Close()
			return Fig3Result{}, err
		}
		point.Label = "Partition"
		st, err := hc.Stats()
		if err != nil {
			e.Close()
			return Fig3Result{}, err
		}
		point.IndexBytes = st.HotIndexBytes + st.ColdIndexBytes
		if st.HotIndexBytes > 0 {
			res.IndexShrinkFactor = float64(fullIndexBytes) / float64(st.HotIndexBytes)
		}
		res.Points = append(res.Points, point)
		if err := e.Close(); err != nil {
			return Fig3Result{}, err
		}
	}

	base := res.Points[0].MsPerQuery
	for i := range res.Points {
		if res.Points[i].MsPerQuery > 0 {
			res.Points[i].Speedup = base / res.Points[i].MsPerQuery
		}
	}
	return res, nil
}

// hotScatter returns the fraction of heap pages holding ≥1 hot tuple in
// the unclustered layout.
func hotScatter(bt *builtTable) (float64, error) {
	// Hot rev_ids.
	hotIDs := make(map[int64]bool, len(bt.latest))
	for _, idx := range bt.latest {
		hotIDs[bt.revs[idx].Row[0].Int] = true
	}
	table, err := bt.engine.Table("revision")
	if err != nil {
		return 0, err
	}
	pagesWithHot := make(map[storage.PageID]bool)
	allPages := make(map[storage.PageID]bool)
	cur, err := table.Query()
	if err != nil {
		return 0, err
	}
	for rid, row := range cur.All() {
		allPages[rid.Page] = true
		if hotIDs[row[0].Int] {
			pagesWithHot[rid.Page] = true
		}
	}
	if err := cur.Err(); err != nil {
		return 0, err
	}
	if len(allPages) == 0 {
		return 0, nil
	}
	return float64(len(pagesWithHot)) / float64(len(allPages)), nil
}

// Print renders the bars plus the index-size side story.
func (r Fig3Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: cost per query on the revision table (%d articles × ~%d revisions, %.1f%% hot traffic)\n",
		r.Config.Pages, r.Config.RevisionsPerPage, r.Config.HotProb*100)
	fmt.Fprintf(w, "%-10s %12s %12s %14s %9s\n", "config", "ms/query", "disk IO/q", "index bytes", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10s %12.3f %12.3f %14d %8.2fx\n",
			p.Label, p.MsPerQuery, p.DiskReadsPerQuery, p.IndexBytes, p.Speedup)
	}
	fmt.Fprintf(w, "hot tuples scattered over %.0f%% of heap pages before clustering\n", r.BaselineHotScatter*100)
	fmt.Fprintf(w, "hot-partition index is %.1f× smaller than the full index (paper: ~19×)\n", r.IndexShrinkFactor)
}
