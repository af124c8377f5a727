package core

import (
	"fmt"

	"repro/internal/encoding"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// layoutSample is the size, in rows held plus staged, of the sample a
// table's record layout is chosen from. The first Apply or commit that
// brings the table to it adopts the layout encoding.Advise picks for
// those rows (tuple.Layout), and the table keeps it.
const layoutSample = 128

// adoptLayout adopts t's packed record layout if this trip brings the
// table to layoutSample rows. Concurrent trips do not wait: one adopts,
// the others write declared records, which every reader still decodes.
// A failure to log leaves the table in the declared layout, for a later
// trip to try again. Caller holds the commit gate and t.mu shared.
func (p *pipeline) adoptLayout() {
	t := p.t
	if t.schema.Packed() != nil {
		return
	}
	staged := 0
	for i := range p.ops {
		if p.ops[i].kind != BatchDelete {
			staged++
		}
	}
	if t.rows.Load()+int64(staged) < layoutSample || !t.adopting.CompareAndSwap(false, true) {
		return
	}
	if err := t.adopt(p.ops); err != nil {
		t.adopting.Store(false)
	}
}

// adopt profiles the rows the heap holds, up to layoutSample of them,
// and the rows ops stage, then logs the layout the advisor picks for
// them before publishing it: the DDL record precedes every record
// written in the layout. A layout with string slots is logged under its
// own record type, so a binary that predates them refuses the log
// instead of replaying the adoption without them.
func (t *Table) adopt(ops []stagedOp) error {
	var sample []tuple.Row
	err := t.file.Scan(func(_ storage.RID, rec []byte) bool {
		if row, _, err := tuple.DecodeFields(nil, t.schema, rec, nil); err == nil {
			sample = append(sample, row)
		}
		return len(sample) < layoutSample
	})
	if err != nil {
		return err
	}
	for i := range ops {
		// A row of the wrong width fails its own pre-flight; the profile
		// skips it.
		if op := &ops[i]; op.kind != BatchDelete && len(op.row) == t.schema.NumFields() {
			sample = append(sample, op.row)
		}
	}
	next := 0
	profiles := encoding.ProfileRows(t.schema, func() (tuple.Row, bool) {
		if next == len(sample) {
			return nil, false
		}
		next++
		return sample[next-1], true
	})
	l, err := tuple.NewLayout(t.schema, encoding.RecordPacking(profiles))
	if err != nil {
		return err
	}
	if e := t.engine; e.wal != nil {
		typ := recAdoptLayout
		if l.HasStringSlots() {
			typ = recAdoptStrings
		}
		if _, err := e.wal.Append(typ, encodeJSON(ddlAdoptLayout{Table: t.name, Layout: l.Spec()})); err != nil {
			return err
		}
	}
	return t.schema.Adopt(l)
}

// adoptSpec adopts the layout a manifest or an adoption record names.
// slots says whether its source may name string slots: a version-2
// manifest and a recAdoptLayout record may not.
func (t *Table) adoptSpec(spec []tuple.FieldPacking, slots bool) error {
	l, err := tuple.NewLayout(t.schema, spec)
	if err != nil {
		return err
	}
	if !slots && l.HasStringSlots() {
		return fmt.Errorf("core: table %q: a layout with string slots from a source that predates them", t.name)
	}
	t.adopting.Store(true)
	return t.schema.Adopt(l)
}
