package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// copyDBFiles copies a WAL engine's files as they are on disk — what a
// crash leaves, without the checkpoint Close would cut.
func copyDBFiles(t *testing.T, from, to string) {
	t.Helper()
	for _, name := range []string{"db", "db.wal", "db.manifest", "db.dw"} {
		data, err := os.ReadFile(filepath.Join(from, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// noCheckpointOptions keeps every write in the WAL: no automatic
// checkpoint runs, so a copy of the files recovers from the log alone.
func noCheckpointOptions(dir string) Options {
	o := walTestOptions(dir)
	o.CheckpointBytes = 1 << 40
	return o
}

// checkReopenRows reads every id in want back through the index and
// compares the rows.
func checkReopenRows(t *testing.T, tbl *Table, want map[int64]tuple.Row) {
	t.Helper()
	ix := mustIndex(t, tbl, "by_id")
	for id, row := range want {
		got, _, err := ix.Lookup(nil, tuple.Int64(id))
		if err != nil || !got.Equal(row) {
			t.Fatalf("row %d reads back as %v (%v), want %v", id, got, err, row)
		}
	}
	if tbl.Rows() != int64(len(want)) {
		t.Fatalf("table holds %d rows, want %d", tbl.Rows(), len(want))
	}
}

// loadPacked creates the reopen table and brings it past its layout
// sample: 127 rows one by one stay declared, the 128th adopts the
// layout, and 72 more are written in it. Then a third of the rows are
// updated to values outside the profiled domain, which escape.
func loadPacked(t *testing.T, e *Engine) (*Table, map[int64]tuple.Row) {
	t.Helper()
	tbl, err := e.CreateTable("users", reopenSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_id", []string{"id"}); err != nil {
		t.Fatal(err)
	}
	want := map[int64]tuple.Row{}
	for i := 0; i < 200; i++ {
		if i == layoutSample-1 && tbl.Schema().Packed() != nil {
			t.Fatalf("layout adopted at %d rows, before the sample of %d", i, layoutSample)
		}
		row := reopenRow(i)
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
		want[int64(i)] = row
	}
	if tbl.Schema().Packed() == nil {
		t.Fatal("no layout adopted after 200 rows")
	}
	ix := mustIndex(t, tbl, "by_id")
	for i := 0; i < 200; i += 3 {
		rid, ok, err := ix.LookupRID(tuple.Int64(int64(i)))
		if err != nil || !ok {
			t.Fatalf("lookup %d: %v %v", i, ok, err)
		}
		row := reopenRow(i)
		row[1] = tuple.Int32(math.MinInt32)
		row[2] = tuple.Int64(math.MaxInt64 - int64(i))
		if _, err := tbl.Update(rid, row); err != nil {
			t.Fatal(err)
		}
		want[int64(i)] = row
	}
	return tbl, want
}

// TestReopenPackedLayoutFromWAL: a table adopts its layout, and a copy
// of its files taken without a checkpoint recovers from the WAL alone —
// the adoption record replays before the records written in the layout,
// so every row, declared, packed or escaped, reads back.
func TestReopenPackedLayoutFromWAL(t *testing.T) {
	dir, crash := t.TempDir(), t.TempDir()
	e, err := NewEngine(noCheckpointOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, want := loadPacked(t, e)
	spec := tbl.Schema().Packed().Spec()
	copyDBFiles(t, dir, crash)

	e2, err := NewEngine(noCheckpointOptions(crash))
	if err != nil {
		t.Fatalf("recover from the WAL: %v", err)
	}
	defer e2.Close()
	tbl2, err := e2.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	if l := tbl2.Schema().Packed(); l == nil || !reflect.DeepEqual(l.Spec(), spec) {
		t.Fatalf("recovered layout %v, want %v", l, spec)
	}
	checkReopenRows(t, tbl2, want)
}

// TestReopenPackedLayoutFromManifest: after a checkpoint the layout is a
// field of the table's manifest entry (manifest version 3), and the
// reopened table decodes every row with it. A version-1 manifest is
// refused.
func TestReopenPackedLayoutFromManifest(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(noCheckpointOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	tbl, want := loadPacked(t, e)
	spec := tbl.Schema().Packed().Spec()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(filepath.Join(dir, "db.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 3 || len(m.Tables) != 1 || !reflect.DeepEqual(m.Tables[0].Layout, spec) {
		t.Fatalf("manifest version %d, tables %+v: want version 3 with layout %v", m.Version, m.Tables, spec)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(noCheckpointOptions(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	tbl2, err := e2.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	if l := tbl2.Schema().Packed(); l == nil || !reflect.DeepEqual(l.Spec(), spec) {
		t.Fatalf("reopened layout %v, want %v", l, spec)
	}
	checkReopenRows(t, tbl2, want)
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}

	// The same file at version 1 is refused.
	setManifestVersion(t, filepath.Join(dir, "db.manifest"), 1)
	if e3, err := NewEngine(noCheckpointOptions(dir)); err == nil {
		e3.Close()
		t.Fatal("a version-1 manifest was accepted")
	}
}

// wideSchema is eight BIGINTs holding small values: a packed record is a
// few bytes, and a row whose every field escapes grows by 64.
func wideSchema() *tuple.Schema {
	fields := []tuple.Field{{Name: "id", Kind: tuple.KindInt64}}
	for i := 1; i < 8; i++ {
		fields = append(fields, tuple.Field{Name: fmt.Sprintf("c%d", i), Kind: tuple.KindInt64})
	}
	return tuple.MustSchema(fields...)
}

func wideRow(id int64, v int64) tuple.Row {
	row := tuple.Row{tuple.Int64(id)}
	for i := 1; i < 8; i++ {
		row = append(row, tuple.Int64(v))
	}
	return row
}

// TestReopenGrowingUpdateRelocates: an update whose escapes grow a packed
// row past the room its full page has left moves the row. The RID the
// update reports, the index, and a WAL replay of a copy of the files all
// agree on where it went.
func TestReopenGrowingUpdateRelocates(t *testing.T) {
	dir, crash := t.TempDir(), t.TempDir()
	e, err := NewEngine(noCheckpointOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tbl, err := e.CreateTable("wide", wideSchema(), WithHeapInsertShards(1))
	if err != nil {
		t.Fatal(err)
	}
	ix, err := tbl.CreateIndex("by_id", []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := int64(0); i < 1000; i++ {
		b.Insert(wideRow(i, i%5))
	}
	res, err := tbl.Apply(&b, WithResultRIDs())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Schema().Packed() == nil {
		t.Fatal("no layout adopted")
	}
	old := res.RIDs[0]
	if last := res.RIDs[len(res.RIDs)-1]; last.Page == old.Page {
		t.Fatalf("1000 rows fit one page: the first page is not full")
	}
	var free int
	if err := tbl.Heap().VisitPage(old.Page, func(sp *storage.SlottedPage, _ bool) { free = sp.AvailableBytes() }); err != nil {
		t.Fatal(err)
	}
	if free >= 64 {
		t.Fatalf("the first page has %d bytes free: an escape of 64 would fit", free)
	}

	grown := wideRow(0, math.MinInt64)
	rid, err := tbl.Update(old, grown)
	if err != nil {
		t.Fatal(err)
	}
	if rid == old {
		t.Fatalf("a row grown by its escapes stayed at %v on a page with %d bytes free", old, free)
	}
	if got, ok, err := ix.LookupRID(tuple.Int64(0)); err != nil || !ok || got != rid {
		t.Fatalf("index says %v (%v %v), the update reported %v", got, ok, err, rid)
	}
	if row, err := tbl.Get(rid); err != nil || !row.Equal(grown) {
		t.Fatalf("row at %v: %v (%v)", rid, row, err)
	}

	copyDBFiles(t, dir, crash)
	e2, err := NewEngine(noCheckpointOptions(crash))
	if err != nil {
		t.Fatalf("recover from the WAL: %v", err)
	}
	defer e2.Close()
	tbl2, err := e2.Table("wide")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := mustIndex(t, tbl2, "by_id").LookupRID(tuple.Int64(0)); err != nil || !ok || got != rid {
		t.Fatalf("replayed index says %v (%v %v), the update reported %v", got, ok, err, rid)
	}
	if row, err := tbl2.Get(rid); err != nil || !row.Equal(grown) {
		t.Fatalf("replayed row at %v: %v (%v)", rid, row, err)
	}
	if _, err := tbl2.Get(old); err == nil {
		t.Fatalf("the row's old slot %v still holds a record after replay", old)
	}
	if tbl2.Rows() != 1000 {
		t.Fatalf("replayed table holds %d rows, want 1000", tbl2.Rows())
	}
}

// TestRawWriteOnCollectedSlotIsVisible: a raw write that lands on a heap
// slot the GC freed is visible. The collected version's tombstone dies
// with the slot's reuse; it used to outlive it when no snapshot was open
// (the raw write then stamps no meta of its own) and hide the new row.
func TestRawWriteOnCollectedSlotIsVisible(t *testing.T) {
	tb, ix := newBatchFixture(t, false)
	for i := int64(0); i < 10; i++ {
		if _, err := tb.Insert(fixedRow(i, i)); err != nil {
			t.Fatal(err)
		}
	}
	old, ok, err := ix.LookupRID(tuple.Int64(3))
	if err != nil || !ok {
		t.Fatalf("lookup 3: %v %v", ok, err)
	}
	tx := tb.engine.Begin()
	var b Batch
	b.Update(old, fixedRow(3, 30))
	if _, err := tx.Apply(tb, &b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := tb.engine.RunGC(); n != 1 {
		t.Fatalf("GC removed %d versions, want 1", n)
	}
	rid, err := tb.Insert(fixedRow(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rid != old {
		t.Fatalf("insert landed at %v, not on the collected slot %v", rid, old)
	}
	if row, _, err := ix.Lookup(nil, tuple.Int64(100)); err != nil || row == nil {
		t.Fatalf("row inserted on a collected slot is not visible (%v)", err)
	}
}
