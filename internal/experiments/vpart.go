package experiments

import (
	"fmt"
	"io"

	"repro/internal/tuple"
	"repro/internal/vertical"
	"repro/internal/wiki"
	"repro/internal/workload"
)

// VPartConfig parameterizes the Section 3.2 vertical-partitioning
// evaluation.
type VPartConfig struct {
	Rows    int
	Queries int
	Seed    int64
}

// DefaultVPartConfig runs 10k rows and 20k operations.
func DefaultVPartConfig() VPartConfig {
	return VPartConfig{Rows: 10000, Queries: 20000, Seed: 1}
}

// VPartResult compares the advisor's split against the unsplit table.
type VPartResult struct {
	Config VPartConfig
	// Fixture is the engine and revision rows the vertical table is
	// built from: their first Config.Rows rows.
	Fixture FixtureConfig
	Split   vertical.Split
	// Group touches per operation class, measured on the materialized
	// VerticalTable.
	HotReadTouches  float64 // narrow read (hot fields only)
	FullReadTouches float64 // full-row read (merge cost)
	UpdateTouches   float64 // hot-field update
	// Page touches per op of the measured mix: split is measured (one
	// page per group touched); unsplit is assumed, one page per op.
	SplitIOPerOp, UnsplitIOPerOp float64
}

// RunVPart advises a split for the revision workload (hot read fields
// vs write-hot fields vs cold bulk), materializes it, and measures
// group touches for the three operation classes.
func RunVPart(cfg VPartConfig) (_ VPartResult, err error) {
	schema := wiki.RevisionSchema()
	// Workload profile modeled on the paper's description: queries read
	// id/page/text pointers constantly, the comment and user text rarely;
	// rev_len and rev_timestamp are updated on every edit.
	stats := []vertical.FieldStats{
		{Name: "rev_id", WidthBytes: 8, ReadFreq: 1.0, UpdateFreq: 0, Cached: true},
		{Name: "rev_page", WidthBytes: 8, ReadFreq: 0.9, UpdateFreq: 0, Cached: true},
		{Name: "rev_text_id", WidthBytes: 8, ReadFreq: 0.9, UpdateFreq: 0, Cached: true},
		{Name: "rev_comment", WidthBytes: 40, ReadFreq: 0.05, UpdateFreq: 0},
		{Name: "rev_user", WidthBytes: 8, ReadFreq: 0.2, UpdateFreq: 0},
		{Name: "rev_user_text", WidthBytes: 20, ReadFreq: 0.05, UpdateFreq: 0},
		{Name: "rev_timestamp", WidthBytes: 14, ReadFreq: 0.1, UpdateFreq: 0.5},
		{Name: "rev_minor_edit", WidthBytes: 8, ReadFreq: 0.02, UpdateFreq: 0.01},
		{Name: "rev_deleted", WidthBytes: 8, ReadFreq: 0.02, UpdateFreq: 0.3},
		{Name: "rev_len", WidthBytes: 8, ReadFreq: 0.1, UpdateFreq: 0.5},
		{Name: "rev_parent_id", WidthBytes: 8, ReadFreq: 0.1, UpdateFreq: 0},
	}
	split, err := vertical.Advise(schema, stats, vertical.DefaultCostModel())
	if err != nil {
		return VPartResult{}, err
	}
	res := VPartResult{Config: cfg, Split: split, Fixture: FixtureConfig{Shape: RevisionShape,
		Pages: max(cfg.Rows/10, 10), RevisionsPerPage: 10, Seed: cfg.Seed, PageSize: 4096, PoolPages: 1 << 14}}

	// Materialize: groups must exclude the pk (rev_id keys every group).
	groups := make([][]string, 0, len(split.Groups))
	for _, g := range split.Groups {
		var cleaned []string
		for _, f := range g {
			if f != "rev_id" {
				cleaned = append(cleaned, f)
			}
		}
		if len(cleaned) > 0 {
			groups = append(groups, cleaned)
		}
	}
	e, err := res.Fixture.open()
	if err != nil {
		return VPartResult{}, err
	}
	defer closeEngine(e, &err)
	vt, err := vertical.NewVerticalTable(e, "revision", schema, "rev_id", groups)
	if err != nil {
		return VPartResult{}, err
	}
	_, revs, _ := res.Fixture.generate()
	revs = revs[:min(cfg.Rows, len(revs))]
	for _, r := range revs {
		if err := vt.Insert(r); err != nil {
			return VPartResult{}, err
		}
	}

	rng := workload.NewRand(cfg.Seed + 5)
	hotFields := []string{"rev_page", "rev_text_id"}
	var hotTouches, fullTouches, updTouches int
	nHot, nFull, nUpd := 0, 0, 0
	for i := 0; i < cfg.Queries; i++ {
		pk := revs[rng.Intn(len(revs))][0]
		switch {
		case i%10 < 7: // 70% narrow hot reads
			_, t, err := vt.GetFields(pk, hotFields)
			if err != nil {
				return VPartResult{}, err
			}
			hotTouches += t
			nHot++
		case i%10 < 9: // 20% hot-field updates
			t, err := vt.UpdateFields(pk,
				[]string{"rev_len"}, tuple.Row{tuple.Int64(int64(rng.Intn(60000)))})
			if err != nil {
				return VPartResult{}, err
			}
			updTouches += t
			nUpd++
		default: // 10% full-row reads (merge cost)
			_, t, err := vt.Get(pk)
			if err != nil {
				return VPartResult{}, err
			}
			fullTouches += t
			nFull++
		}
	}
	if nHot > 0 {
		res.HotReadTouches = float64(hotTouches) / float64(nHot)
	}
	if nFull > 0 {
		res.FullReadTouches = float64(fullTouches) / float64(nFull)
	}
	if nUpd > 0 {
		res.UpdateTouches = float64(updTouches) / float64(nUpd)
	}
	// Page touches for the measured mix: group touches × 1 page each,
	// vs an unsplit table assumed to touch exactly 1 page per op.
	totalOps := float64(nHot + nFull + nUpd)
	res.SplitIOPerOp = float64(hotTouches+fullTouches+updTouches) / totalOps
	res.UnsplitIOPerOp = 1.0
	return res, nil
}

// Print renders the advisor verdict and measurements.
func (r VPartResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Section 3.2: vertical partitioning\n")
	fmt.Fprintf(w, "%v; its first %d rows split into a vertical table\n", r.Fixture, r.Config.Rows)
	fmt.Fprintf(w, "advisor: %s\n", r.Split.Note)
	for i, g := range r.Split.Groups {
		fmt.Fprintf(w, "  group %d: %v\n", i, g)
	}
	fmt.Fprintf(w, "model cost (per 1000 ops): read %.0f→%.0f, write %.0f→%.0f (gain %.1f%%)\n",
		r.Split.BaselineReadCost, r.Split.ReadCost,
		r.Split.BaselineWriteCost, r.Split.WriteCost, 100*r.Split.Gain())
	fmt.Fprintf(w, "measured group touches/op: hot read %.2f, full read %.2f (merge cost), update %.2f\n",
		r.HotReadTouches, r.FullReadTouches, r.UpdateTouches)
	fmt.Fprintf(w, "page touches/op for the mix: split %.2f vs unsplit %.2f assumed (one page per op, not measured)\n",
		r.SplitIOPerOp, r.UnsplitIOPerOp)
}
