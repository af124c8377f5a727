package experiments

import (
	"fmt"
	"io"

	"repro/internal/encoding"
	"repro/internal/tuple"
	"repro/internal/wiki"
)

// EncWasteConfig parameterizes the Section 4.1 analysis: encoding waste
// across the synthetic Wikipedia and CarTel tables.
type EncWasteConfig struct {
	Rows int // rows generated per table
	Seed int64
	// PaperScaleBytes extrapolates the measured waste percentages to
	// paper-scale table sizes (the paper reports 23.5 GB / 20% over the
	// tables it inspected). Keyed by table name.
	PaperScaleBytes map[string]int64
}

// DefaultEncWasteConfig analyzes 20k rows per table and extrapolates to
// the rough sizes of the paper's tables.
func DefaultEncWasteConfig() EncWasteConfig {
	return EncWasteConfig{
		Rows: 20000,
		Seed: 1,
		PaperScaleBytes: map[string]int64{
			"revision": 25 << 30, // revision metadata: tens of GB
			"page":     2 << 30,
			"cartel":   15 << 30, // CarTel telemetry
			"text":     75 << 30, // article content dominates total bytes
		},
	}
}

// EncWasteTable is one table's report beside its rows as the engine
// stores them: in the layout RecordPacking builds from the report's
// profiles.
type EncWasteTable struct {
	encoding.TableReport
	Layout      *tuple.Layout
	StoredBytes int64 // record bytes of every row in Layout
	Escaped     int   // rows with a value outside Layout's domain
}

// EncWasteResult aggregates per-table reports.
type EncWasteResult struct {
	Config  EncWasteConfig
	Reports []EncWasteTable
	// TotalDeclaredBytes / TotalWasteBytes extrapolate to paper scale.
	TotalDeclaredBytes int64
	TotalWasteBytes    int64
}

// AggregateWastePct returns the paper's headline "20%" figure.
func (r EncWasteResult) AggregateWastePct() float64 {
	if r.TotalDeclaredBytes == 0 {
		return 0
	}
	return float64(r.TotalWasteBytes) / float64(r.TotalDeclaredBytes) * 100
}

// RunEncWaste generates the four tables, runs the analyzer on each, and
// stores every row in the record layout the recommendations describe,
// verifying that each reads back.
func RunEncWaste(cfg EncWasteConfig) (EncWasteResult, error) {
	res := EncWasteResult{Config: cfg}

	// revision table: the rows vpart's fixture draws
	gen, revRows, _ := FixtureConfig{Shape: RevisionShape, Pages: max(cfg.Rows/10, 10), RevisionsPerPage: 10,
		Seed: cfg.Seed}.generate()
	if err := res.analyze("revision", wiki.RevisionSchema(), revRows[:min(cfg.Rows, len(revRows))]); err != nil {
		return EncWasteResult{}, err
	}

	// page table
	pageRows, _ := rowsOf(gen, PageShape, cfg.Rows/10)
	if err := res.analyze("page", wiki.PageSchema(), pageRows); err != nil {
		return EncWasteResult{}, err
	}

	// cartel table
	cartelRows := make([]tuple.Row, cfg.Rows)
	for i := range cartelRows {
		cartelRows[i] = gen.CarTelRow(i)
	}
	if err := res.analyze("cartel", wiki.CarTelSchema(), cartelRows); err != nil {
		return EncWasteResult{}, err
	}

	// text table (article blobs: the low end of the waste band)
	textRows := make([]tuple.Row, cfg.Rows/4)
	for i := range textRows {
		textRows[i] = gen.TextRow(i)
	}
	if err := res.analyze("text", wiki.TextSchema(), textRows); err != nil {
		return EncWasteResult{}, err
	}

	for _, rep := range res.Reports {
		scale, ok := cfg.PaperScaleBytes[rep.Name]
		if !ok {
			scale = rep.DeclaredBytes()
		}
		res.TotalDeclaredBytes += scale
		res.TotalWasteBytes += int64(float64(scale) * rep.WastePct() / 100)
	}
	return res, nil
}

func (r *EncWasteResult) analyze(name string, schema *tuple.Schema, rows []tuple.Row) error {
	i := 0
	report := encoding.AnalyzeRows(name, schema, func() (tuple.Row, bool) {
		if i >= len(rows) {
			return nil, false
		}
		row := rows[i]
		i++
		return row, true
	})
	// Store every row in the layout the recommendations describe and read
	// it back: they must be lossless for the data that produced them, and
	// what the records take is what a loaded table's heap holds.
	packed, err := encoding.PackedSchema(schema, report)
	if err != nil {
		return fmt.Errorf("experiments: layout for %s: %w", name, err)
	}
	tb := EncWasteTable{TableReport: report, Layout: packed.Packed()}
	var (
		rec  []byte
		back tuple.Row
	)
	for j, row := range rows {
		var esc uint64
		if rec, esc, err = tuple.EncodeEscapes(packed, row, rec[:0]); err != nil {
			return fmt.Errorf("experiments: packing %s row %d: %w", name, j, err)
		}
		if back, _, err = tuple.DecodeInto(back, packed, rec); err != nil || !row.Equal(back) {
			return fmt.Errorf("experiments: %s row %d did not round-trip through its layout (%v)", name, j, err)
		}
		tb.StoredBytes += int64(len(rec))
		if esc != 0 {
			tb.Escaped++
		}
	}
	r.Reports = append(r.Reports, tb)
	return nil
}

// Print renders the per-table and per-column reports.
func (r EncWasteResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Section 4.1: encoding waste analysis (declared types as hints)\n")
	for _, rep := range r.Reports {
		fmt.Fprintf(w, "\ntable %-10s rows=%d declared=%s optimal=%s waste=%.1f%% stored=%s\n",
			rep.Name, rep.Rows, fmtBytes(rep.DeclaredBytes()), fmtBytes(rep.OptimalBytes()), rep.WastePct(), fmtBytes(rep.StoredBytes))
		fmt.Fprintf(w, "  %-18s %-14s %10s %10s %7s  %s\n", "column", "enc", "decl bits", "opt bits", "waste%", "note")
		for _, c := range rep.Columns {
			fmt.Fprintf(w, "  %-18s %-14s %10.1f %10.1f %6.1f%%  %s\n",
				c.Rec.Field.Name, c.Rec.Enc, c.DeclaredBits, c.OptimalBits, c.WastePct(), c.Rec.Note)
		}
	}
	fmt.Fprintf(w, "\naggregate at paper scale: %s of %s wasted (%.1f%%; paper: 23.5 GB ≈ 20%%)\n",
		fmtBytes(r.TotalWasteBytes), fmtBytes(r.TotalDeclaredBytes), r.AggregateWastePct())
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
