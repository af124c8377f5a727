package vertical

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/tuple"
)

// VerticalTable stores a logical table as several physical group
// tables, each holding the primary key plus one column group. Reads
// that need a single group touch one heap; full-row reads pay the merge
// cost the advisor models.
type VerticalTable struct {
	schema  *tuple.Schema
	pkField string
	groups  []groupTable
}

type groupTable struct {
	fields []string // without the pk
	table  *core.Table
	index  *core.Index // unique index on the pk
	// positions of the group's fields in the logical schema
	logicalPos []int
}

// NewVerticalTable materializes a split on an engine. The primary key
// field is added to every group. Table names are "<name>_g<i>". opts
// apply to every group table. The groups are ordinary tables, each with
// its own heap.
func NewVerticalTable(e *core.Engine, name string, schema *tuple.Schema, pkField string, groups [][]string, opts ...core.TableOption) (*VerticalTable, error) {
	if schema.Index(pkField) < 0 {
		return nil, fmt.Errorf("vertical: pk field %q not in schema", pkField)
	}
	vt := &VerticalTable{schema: schema, pkField: pkField}
	seen := map[string]bool{pkField: true}
	for gi, g := range groups {
		fields := make([]tuple.Field, 0, len(g)+1)
		fields = append(fields, schema.Field(schema.Index(pkField)))
		var logicalPos []int
		var names []string
		for _, fname := range g {
			if fname == pkField {
				continue
			}
			pos := schema.Index(fname)
			if pos < 0 {
				return nil, fmt.Errorf("vertical: field %q not in schema", fname)
			}
			if seen[fname] {
				return nil, fmt.Errorf("vertical: field %q in more than one group", fname)
			}
			seen[fname] = true
			fields = append(fields, schema.Field(pos))
			logicalPos = append(logicalPos, pos)
			names = append(names, fname)
		}
		gschema, err := tuple.NewSchema(fields...)
		if err != nil {
			return nil, err
		}
		tb, err := e.CreateTable(fmt.Sprintf("%s_g%d", name, gi), gschema, opts...)
		if err != nil {
			return nil, err
		}
		ix, err := tb.CreateIndex("pk", []string{pkField})
		if err != nil {
			return nil, err
		}
		vt.groups = append(vt.groups, groupTable{
			fields:     names,
			table:      tb,
			index:      ix,
			logicalPos: logicalPos,
		})
	}
	for i := 0; i < schema.NumFields(); i++ {
		if !seen[schema.Field(i).Name] {
			return nil, fmt.Errorf("vertical: field %q not covered by any group", schema.Field(i).Name)
		}
	}
	return vt, nil
}

// Insert stores a logical row across all groups. Each group's insert
// is individually thread-safe (heap placement under the heap's insert
// mutex + index latch crabbing, so parallel ingesters contend per group
// heap and per leaf),
// but the logical row lands group by group: a concurrent reader can
// observe a pk whose later groups have not been written yet. Callers
// needing cross-group atomicity must serialize above this layer.
// Insert is a one-row InsertBatch; bulk ingest should batch.
func (vt *VerticalTable) Insert(row tuple.Row) error {
	_, err := vt.InsertBatch([]tuple.Row{row})
	return err
}

// InsertBatch stores a batch of logical rows: one core.Batch fans out
// per group, so each group's heap sees one insert run and
// each group's pk index one leaf-grouped sorted run, instead of
// len(rows) one-row pipelines per group. The cross-group visibility
// caveat of Insert applies batch-wide — groups land in order, so a
// concurrent reader can observe pks whose later groups are missing;
// on error, earlier groups hold more of the batch than later ones
// (the returned group count says how many groups fully applied).
func (vt *VerticalTable) InsertBatch(rows []tuple.Row, opts ...core.ApplyOption) (int, error) {
	for i, row := range rows {
		if len(row) != vt.schema.NumFields() {
			return 0, fmt.Errorf("vertical: row %d has %d values, schema %d", i, len(row), vt.schema.NumFields())
		}
	}
	pkPos := vt.schema.Index(vt.pkField)
	applied := 0
	var b core.Batch
	for _, g := range vt.groups {
		b.Reset()
		for _, row := range rows {
			grow := make(tuple.Row, 0, len(g.logicalPos)+1)
			grow = append(grow, row[pkPos])
			for _, pos := range g.logicalPos {
				grow = append(grow, row[pos])
			}
			b.Insert(grow)
		}
		if _, err := g.table.Apply(&b, opts...); err != nil {
			return applied, err
		}
		applied++
	}
	return applied, nil
}

// Get reconstructs the full logical row for a primary key, touching
// every group (maximum merge cost). The second return reports how many
// group tables were accessed.
func (vt *VerticalTable) Get(pk tuple.Value) (tuple.Row, int, error) {
	row := make(tuple.Row, vt.schema.NumFields())
	row[vt.schema.Index(vt.pkField)] = pk
	touched := 0
	for _, g := range vt.groups {
		grow, res, err := g.index.Lookup(nil, pk)
		if err != nil {
			return nil, touched, err
		}
		if !res.Found {
			return nil, touched, fmt.Errorf("vertical: pk %v missing from group", pk)
		}
		touched++
		for i, pos := range g.logicalPos {
			row[pos] = grow[i+1] // grow[0] is the pk
		}
	}
	return row, touched, nil
}

// GetFields fetches only the named fields, touching only the groups
// that hold them — the read-amplification win the advisor models.
func (vt *VerticalTable) GetFields(pk tuple.Value, names []string) (tuple.Row, int, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(tuple.Row, len(names))
	touched := 0
	for _, g := range vt.groups {
		needed := false
		for _, f := range g.fields {
			if want[f] {
				needed = true
				break
			}
		}
		if !needed {
			continue
		}
		grow, res, err := g.index.Lookup(nil, pk)
		if err != nil {
			return nil, touched, err
		}
		if !res.Found {
			return nil, touched, fmt.Errorf("vertical: pk %v missing from group", pk)
		}
		touched++
		for i, f := range g.fields {
			for oi, n := range names {
				if n == f {
					out[oi] = grow[i+1]
				}
			}
		}
	}
	for oi, n := range names {
		if n == vt.pkField {
			out[oi] = pk
		}
	}
	return out, touched, nil
}

// UpdateFields modifies the named fields of the row with the given pk,
// touching only the groups holding them — the write-density win of the
// update-rate split.
func (vt *VerticalTable) UpdateFields(pk tuple.Value, names []string, vals tuple.Row) (int, error) {
	if len(names) != len(vals) {
		return 0, fmt.Errorf("vertical: %d names, %d values", len(names), len(vals))
	}
	newVal := make(map[string]tuple.Value, len(names))
	for i, n := range names {
		newVal[n] = vals[i]
	}
	touched := 0
	for _, g := range vt.groups {
		needed := false
		for _, f := range g.fields {
			if _, ok := newVal[f]; ok {
				needed = true
				break
			}
		}
		if !needed {
			continue
		}
		rid, found, err := g.index.LookupRID(pk)
		if err != nil {
			return touched, err
		}
		if !found {
			return touched, fmt.Errorf("vertical: pk %v missing from group", pk)
		}
		grow, err := g.table.Get(rid)
		if err != nil {
			return touched, err
		}
		for i, f := range g.fields {
			if v, ok := newVal[f]; ok {
				grow[i+1] = v
			}
		}
		if _, err := g.table.Update(rid, grow); err != nil {
			return touched, err
		}
		touched++
	}
	return touched, nil
}
