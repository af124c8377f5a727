package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/storage"
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
	Speedup    float64 // vs the 0% baseline
}

// Fig3Result is the full bar set.
type Fig3Result struct {
	Config Fig3Config
	// Fixture is the revision table every leg loads: a pool smaller than
	// the table, and storage reads counted.
	Fixture FixtureConfig
	Points  []Fig3Point
	// BaselineHotScatter is the fraction of heap pages containing at
	// least one hot tuple before clustering — the paper's diagnosis that
	// hot tuples are spread over nearly all pages.
	BaselineHotScatter float64
	// IndexShrinkFactor is full-index size / hot-partition-index size
	// (the paper's 27.1 GB → 1.4 GB ≈ 19×).
	IndexShrinkFactor float64
}

// RunFig3 loads the revision table, generated once, four times —
// unclustered, 54% clustered, fully clustered, and hot/cold partitioned
// — and replays the same 99.9%-hot trace against each with a
// constrained buffer pool.
func RunFig3(cfg Fig3Config) (Fig3Result, error) {
	res := Fig3Result{Config: cfg, Fixture: FixtureConfig{Shape: RevisionShape, Pages: cfg.Pages,
		RevisionsPerPage: cfg.RevisionsPerPage, Seed: cfg.Seed, PageSize: cfg.PageSize,
		PoolPages: cfg.BufferPoolPages, CountIO: true}}
	data, err := NewFixture(res.Fixture)
	if err != nil {
		return Fig3Result{}, err
	}
	trace := wiki.NewGenerator(wiki.Config{
		Pages: cfg.Pages, RevisionsPerPage: cfg.RevisionsPerPage,
		Alpha: 0.5, Seed: cfg.Seed + 99,
	}).RevisionTrace(cfg.Queries, cfg.HotProb, len(data.Rows), data.Latest)

	for i, frac := range []float64{0, 0.54, 1} {
		f := data
		if i > 0 {
			if f, err = data.Reload(); err != nil {
				return Fig3Result{}, err
			}
		}
		if err := res.clustered(f, frac, trace); err != nil {
			return Fig3Result{}, err
		}
	}
	if err := res.partitioned(data, trace); err != nil {
		return Fig3Result{}, err
	}

	base := res.Points[0].MsPerQuery
	for i := range res.Points {
		if res.Points[i].MsPerQuery > 0 {
			res.Points[i].Speedup = base / res.Points[i].MsPerQuery
		}
	}
	return res, nil
}

// clustered adds the bar of f's table indexed by rev_id with frac of
// its hot tuples clustered (measuring their scatter instead at 0), and
// closes f's engine.
func (res *Fig3Result) clustered(f *Fixture, frac float64, trace []int) (err error) {
	defer closeEngine(f.Engine, &err)
	ix, err := f.Table.CreateIndex("rev_id", []string{"rev_id"}, core.WithFillFactor(0.68))
	if err != nil {
		return err
	}
	if frac == 0 {
		if res.BaselineHotScatter, err = hotScatter(f); err != nil {
			return err
		}
	} else {
		hot := make([]storage.RID, len(f.Latest))
		for i, idx := range f.Latest {
			hot[i] = f.RIDs[idx]
		}
		if _, err := partition.ClusterFraction(f.Table, hot, frac); err != nil {
			return err
		}
	}
	p, err := fig3Replay(res.Config, f.Engine, f.Latest, trace, func(revIdx int) error {
		_, lr, err := ix.Lookup(nil, f.Rows[revIdx][0])
		if err == nil && !lr.Found {
			err = fmt.Errorf("experiments: rev %d not found", revIdx)
		}
		return err
	})
	if err != nil {
		return err
	}
	ts, err := ix.Tree().Stats()
	if err != nil {
		return err
	}
	p.Label, p.IndexBytes = fmt.Sprintf("%.0f%%", 100*frac), ts.SizeBytes
	res.Points = append(res.Points, p)
	return nil
}

// partitioned adds the bar of f's rows split into a hot and a cold
// table+index on a new engine of f's fixture, and the index shrink
// factor against the unclustered bar's index.
func (res *Fig3Result) partitioned(f *Fixture, trace []int) (err error) {
	e, err := f.Config.open()
	if err != nil {
		return err
	}
	defer closeEngine(e, &err)
	hc, err := partition.New(partition.Config{
		Engine: e, Name: "revision", Schema: wiki.RevisionSchema(),
		KeyFields: []string{"rev_id"},
	})
	if err != nil {
		return err
	}
	hot := make([]bool, len(f.Rows))
	for _, idx := range f.Latest {
		hot[idx] = true
	}
	for i, row := range f.Rows {
		if hot[i] {
			_, err = hc.InsertHot(row)
		} else {
			_, err = hc.InsertCold(row)
		}
		if err != nil {
			return err
		}
	}
	p, err := fig3Replay(res.Config, e, f.Latest, trace, func(revIdx int) error {
		_, _, err := hc.Lookup(f.Rows[revIdx][0])
		return err
	})
	if err != nil {
		return err
	}
	st, err := hc.Stats()
	if err != nil {
		return err
	}
	p.Label, p.IndexBytes = "Partition", st.HotIndexBytes+st.ColdIndexBytes
	if st.HotIndexBytes > 0 {
		res.IndexShrinkFactor = float64(res.Points[0].IndexBytes) / float64(st.HotIndexBytes)
	}
	res.Points = append(res.Points, p)
	return nil
}

// fig3Replay warms the hot set from an evicted pool, replays trace
// through lookup and converts e's I/O counts into simulated time. The
// eviction makes each bar depend on its layout alone, not on the pages
// its build left resident.
func fig3Replay(cfg Fig3Config, e *core.Engine, latest, trace []int, lookup func(revIdx int) error) (Fig3Point, error) {
	if err := e.Pool().EvictAll(); err != nil {
		return Fig3Point{}, err
	}
	// Warm: one pass over the hot set so steady state is measured.
	for _, idx := range latest {
		if err := lookup(idx); err != nil {
			return Fig3Point{}, err
		}
	}
	counter := e.IOCounter()
	counter.ResetCounts()
	e.Pool().ResetStats()
	for _, idx := range trace {
		if err := lookup(idx); err != nil {
			return Fig3Point{}, err
		}
	}
	reads := counter.Reads()
	poolStats := e.Pool().Stats()
	accesses := poolStats.Hits + poolStats.Misses
	totalCost := cfg.Cost.IndexProbe.Seconds()*float64(cfg.Queries) +
		cfg.Cost.BufferPoolAccess.Seconds()*float64(accesses) +
		cfg.Cost.DiskRead.Seconds()*float64(reads)
	return Fig3Point{
		MsPerQuery:        totalCost / float64(cfg.Queries) * 1000,
		DiskReadsPerQuery: float64(reads) / float64(cfg.Queries),
	}, nil
}

// hotScatter returns the fraction of the heap pages holding rows of f,
// as loaded, that hold ≥1 hot tuple.
func hotScatter(f *Fixture) (float64, error) {
	hot, all := make(map[storage.PageID]bool), make(map[storage.PageID]bool)
	for _, idx := range f.Latest {
		hot[f.RIDs[idx].Page] = true
	}
	cur, err := f.Table.Query()
	if err != nil {
		return 0, err
	}
	for rid := range cur.All() {
		all[rid.Page] = true
	}
	return float64(len(hot)) / float64(max(len(all), 1)), cur.Err()
}

// Print renders the bars plus the index-size side story.
func (r Fig3Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: cost per query on the revision table (%d articles × ~%d revisions, %.1f%% hot traffic)\n",
		r.Config.Pages, r.Config.RevisionsPerPage, r.Config.HotProb*100)
	fmt.Fprintf(w, "%v\n", r.Fixture)
	fmt.Fprintf(w, "%-10s %12s %12s %14s %9s\n", "config", "ms/query", "disk IO/q", "index bytes", "speedup")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-10s %12.3f %12.3f %14d %8.2fx\n",
			p.Label, p.MsPerQuery, p.DiskReadsPerQuery, p.IndexBytes, p.Speedup)
	}
	fmt.Fprintf(w, "hot tuples scattered over %.0f%% of heap pages before clustering\n", r.BaselineHotScatter*100)
	fmt.Fprintf(w, "hot-partition index is %.1f× smaller than the full index (paper: ~19×)\n", r.IndexShrinkFactor)
}
