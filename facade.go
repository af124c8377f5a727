package nblb

import (
	"repro/internal/encoding"
	"repro/internal/partition"
	"repro/internal/semid"
	"repro/internal/tuple"
	"repro/internal/vertical"
)

// --- §3.1 horizontal partitioning ---------------------------------------

// AccessTracker observes per-tuple access frequency to find hot tuples.
type AccessTracker = partition.AccessTracker

// NewAccessTracker returns an empty tracker.
func NewAccessTracker() *AccessTracker { return partition.NewAccessTracker() }

// HotCold is a table split into hot and cold partitions with per-
// partition lookup indexes: InsertHot/InsertCold place a row, Lookup
// tries hot first, Stats reports the two indexes' sizes.
type HotCold = partition.HotCold

// HotColdConfig configures NewHotCold.
type HotColdConfig = partition.Config

// NewHotCold creates an empty hot/cold partition pair.
func NewHotCold(cfg HotColdConfig) (*HotCold, error) { return partition.New(cfg) }

// Cluster relocates hot tuples to the end of the table (a new copy
// appended, then the old one freed) and returns each moved tuple's old
// RID → new RID.
func Cluster(t *Table, hot []RID) (map[RID]RID, error) {
	return partition.Cluster(t, hot)
}

// ClusterFraction clusters only the leading fraction of the hot list.
func ClusterFraction(t *Table, hot []RID, frac float64) (map[RID]RID, error) {
	return partition.ClusterFraction(t, hot, frac)
}

// --- §3.2 vertical partitioning ------------------------------------------

// FieldStats profiles one column's workload for the vertical advisor.
type FieldStats = vertical.FieldStats

// VerticalSplit is a proposed column grouping with model costs.
type VerticalSplit = vertical.Split

// VerticalCostModel weighs per-group seeks against bytes transferred.
type VerticalCostModel = vertical.CostModel

// AdviseVertical proposes a vertical split for the workload profile.
func AdviseVertical(schema *Schema, stats []FieldStats, m VerticalCostModel) (VerticalSplit, error) {
	return vertical.Advise(schema, stats, m)
}

// DefaultVerticalCostModel returns the standard seek:byte trade-off.
func DefaultVerticalCostModel() VerticalCostModel { return vertical.DefaultCostModel() }

// VerticalTable stores a logical table as multiple column-group tables.
type VerticalTable = vertical.VerticalTable

// NewVerticalTable materializes a split on the engine. opts apply to
// every group table (append-only heap, heap fill factor). Bulk ingest
// should use VerticalTable.InsertBatch, which fans one logical batch
// out as one leaf-grouped batch per group.
func NewVerticalTable(e *Engine, name string, schema *Schema, pkField string, groups [][]string, opts ...TableOption) (*VerticalTable, error) {
	return vertical.NewVerticalTable(e, name, schema, pkField, groups, opts...)
}

// --- §4.1 automated schema optimization -----------------------------------

// ColumnProfile accumulates per-column value statistics.
type ColumnProfile = encoding.ColumnProfile

// Recommendation is the advisor's minimal-encoding verdict for a column.
type Recommendation = encoding.Recommendation

// TableReport aggregates per-column waste findings.
type TableReport = encoding.TableReport

// AnalyzeTable profiles every row of a table and reports the encoding
// waste its declared types hide — §4.1's automated analysis. The
// profiler pulls rows straight off a streaming cursor, so the analysis
// runs in O(1) memory instead of cloning the table into a slice.
func AnalyzeTable(t *Table) (TableReport, error) {
	cur, err := t.Query()
	if err != nil {
		return TableReport{}, err
	}
	defer cur.Close()
	report := encoding.AnalyzeRows(t.Name(), t.Schema(), func() (tuple.Row, bool) {
		if !cur.Next() {
			return nil, false
		}
		return cur.Row(), true
	})
	if err := cur.Err(); err != nil {
		return TableReport{}, err
	}
	return report, nil
}

// PackedSchema returns a copy of schema whose rows encode in the packed
// record layout the report's recommendations describe — what a table
// holding the report's rows stores: every value at its recommended bit
// width, a string as its number in a string slot (digits, dictionary
// index or timestamp epoch), and a value outside the profile escaped to
// its declared form. Rows encode and decode through the tuple codec
// (internal/tuple Encode and Decode) under the returned schema.
func PackedSchema(schema *Schema, report TableReport) (*Schema, error) {
	return encoding.PackedSchema(schema, report)
}

// --- §4.2 semantic IDs -----------------------------------------------------

// IDLayout divides an ID's bits between partition and sequence.
type IDLayout = semid.Layout

// NewIDLayout creates a layout with the given number of partition bits.
func NewIDLayout(partitionBits int) (IDLayout, error) { return semid.NewLayout(partitionBits) }

// Router resolves tuple IDs to partitions.
type Router = semid.Router

// NewTableRouter returns the per-tuple routing-table baseline.
func NewTableRouter() *semid.TableRouter { return semid.NewTableRouter() }

// NewEmbeddedRouter routes by decoding partition bits from the ID.
func NewEmbeddedRouter(l IDLayout) *semid.EmbeddedRouter { return semid.NewEmbeddedRouter(l) }

// FindReducibleIDs reports ID fields a proxy can replace (§4.2).
func FindReducibleIDs(schema *Schema, uniqueOnly []string, derived map[string]string) ([]semid.ReductionCheck, error) {
	return semid.FindReducible(schema, uniqueOnly, derived)
}
