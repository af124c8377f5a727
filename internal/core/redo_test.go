package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// Redo against a log whose records disagree with the slots they name.
// Each test writes rows through the engine, then appends records by
// hand, as the Apply that wrote them would have, without landing their
// effects: what a crash leaves when two Applies logged in the opposite
// order to the one their effects took on a reused slot, or when an
// Apply killed before it logged had freed the slot or the room a logged
// Apply then took. Recovery runs on a copy of the files.

func redoSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "tag", Kind: tuple.KindInt64},
		tuple.Field{Name: "name", Kind: tuple.KindString},
	)
}

func redoRow(id, tag int64, name string) tuple.Row {
	return tuple.Row{tuple.Int64(id), tuple.Int64(tag), tuple.String(name)}
}

// newRedoTable opens a WAL engine that never checkpoints on its own,
// with a table indexed uniquely by id and non-uniquely by tag.
func newRedoTable(t *testing.T, dir string) (*Engine, *Table) {
	t.Helper()
	e, err := NewEngine(noCheckpointOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	tbl, err := e.CreateTable("t", redoSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_id", []string{"id"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_tag", []string{"tag"}, NonUnique()); err != nil {
		t.Fatal(err)
	}
	return e, tbl
}

// logApply appends the record of an Apply that inserted ins at rid, or
// deleted del from rid, without landing either.
func logApply(t *testing.T, tbl *Table, rid storage.RID, ins, del tuple.Row) {
	t.Helper()
	row, op := ins, btree.RunUpsert
	if del != nil {
		row, op = del, btree.RunDelete
	}
	rec, err := tuple.Encode(tbl.schema, row, nil)
	if err != nil {
		t.Fatal(err)
	}
	var w walBatch
	w.reset(tbl.name)
	for name, ix := range tbl.indexes {
		key, err := ix.appendEntryKey(nil, row, rid)
		if err != nil {
			t.Fatal(err)
		}
		w.idx(name, btree.RunEntry{Key: key, Value: rid.Pack(), Op: op})
	}
	if del != nil {
		w.del(rid, heap.RecordSum(rec))
	} else {
		w.put(storage.InvalidRID, rid, rec, 0)
	}
	e := tbl.engine
	if _, err := e.wal.Append(recBatch, w.payload()); err != nil {
		t.Fatal(err)
	}
	if err := e.wal.Sync(); err != nil {
		t.Fatal(err)
	}
}

// recoverCopy recovers a copy of dir's files and returns its table.
func recoverCopy(t *testing.T, dir string) *Table {
	t.Helper()
	crash := t.TempDir()
	copyDBFiles(t, dir, crash)
	e, err := NewEngine(noCheckpointOptions(crash))
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// checkRedoRows requires the heap and both indexes to hold exactly want,
// and returns where each row is.
func checkRedoRows(t *testing.T, tbl *Table, want ...tuple.Row) map[int64]storage.RID {
	t.Helper()
	at := map[int64]storage.RID{}
	err := tbl.Heap().Scan(func(rid storage.RID, rec []byte) bool {
		row, _, err := tuple.DecodeFields(nil, tbl.Schema(), rec, nil)
		if err != nil {
			t.Fatalf("record at %v: %v", rid, err)
		}
		at[row[0].Int] = rid
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(at) != len(want) {
		t.Fatalf("heap holds ids %v, want %d rows", at, len(want))
	}
	for _, name := range []string{"by_id", "by_tag"} {
		ix := mustIndex(t, tbl, name)
		if err := ix.Tree().CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := ix.Tree().Len(); n != int64(len(want)) {
			t.Fatalf("%s holds %d entries, want %d", name, n, len(want))
		}
	}
	byID := mustIndex(t, tbl, "by_id")
	for _, row := range want {
		rid, ok, err := byID.LookupRID(row[0])
		if err != nil || !ok || rid != at[row[0].Int] {
			t.Fatalf("by_id finds id %d at %v (%v %v); the heap has it at %v", row[0].Int, rid, ok, err, at[row[0].Int])
		}
		if got, err := tbl.Get(rid); err != nil || !got.Equal(row) {
			t.Fatalf("row at %v reads %v (%v), want %v", rid, got, err, row)
		}
	}
	return at
}

// TestCrashRedoReorderedSlotReuse: D deletes X from slot s and W then
// inserts Y with X's tag into s, but W's record reaches the log first.
// Redo holds W's put until D's delete has removed X, and D's index
// delete spares the tag entry, which by then is Y's: Y survives at s.
func TestCrashRedoReorderedSlotReuse(t *testing.T) {
	dir := t.TempDir()
	_, tbl := newRedoTable(t, dir)
	x, y := redoRow(1, 7, "x"), redoRow(2, 7, "y")
	s, err := tbl.Insert(x)
	if err != nil {
		t.Fatal(err)
	}
	logApply(t, tbl, s, y, nil) // W
	logApply(t, tbl, s, nil, x) // D
	if at := checkRedoRows(t, recoverCopy(t, dir), y); at[2] != s {
		t.Fatalf("y landed at %v, want its logged slot %v", at[2], s)
	}
}

// TestCrashRedoDeleteSparesTheReuse: D deleted X from slot s, W reused s
// for Y, and W logged before a checkpoint began while D logged after. The
// checkpoint image holds Y at s and the log replays only D: its delete
// finds a record other than X in s and leaves it, and its index delete
// spares the tag entry Y shares.
func TestCrashRedoDeleteSparesTheReuse(t *testing.T) {
	dir := t.TempDir()
	e, tbl := newRedoTable(t, dir)
	x, y := redoRow(1, 7, "x"), redoRow(2, 7, "y")
	s, err := tbl.Insert(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(s); err != nil {
		t.Fatal(err)
	}
	if rid, err := tbl.Insert(y); err != nil || rid != s {
		t.Fatalf("y landed at %v (%v), not on x's freed slot %v", rid, err, s)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	logApply(t, tbl, s, nil, x) // D
	if at := checkRedoRows(t, recoverCopy(t, dir), y); at[2] != s {
		t.Fatalf("y is at %v, want %v", at[2], s)
	}
}

// TestCrashRedoLostDeleteKeepsBoth: D deleted X from slot s and was
// killed before it logged; W then inserted Y into s and logged. X was
// never deleted, and Y was: both survive, Y moved to another slot with
// its index entries, and X keeps the tag entry the two shared at s.
func TestCrashRedoLostDeleteKeepsBoth(t *testing.T) {
	dir := t.TempDir()
	_, tbl := newRedoTable(t, dir)
	x, y := redoRow(1, 7, "x"), redoRow(2, 7, "y")
	s, err := tbl.Insert(x)
	if err != nil {
		t.Fatal(err)
	}
	logApply(t, tbl, s, y, nil) // W
	at := checkRedoRows(t, recoverCopy(t, dir), x, y)
	if at[1] != s || at[2] == s {
		t.Fatalf("x at %v and y at %v: want x kept at %v and y moved", at[1], at[2], s)
	}
}

// TestCrashRedoLostRoomMovesTheRecord: W logged an insert into room on a
// full page that an unlogged Apply had freed. Recovery does not refuse
// to open: W's row moves to a page with room and its index entries
// follow it.
func TestCrashRedoLostRoomMovesTheRecord(t *testing.T) {
	dir := t.TempDir()
	_, tbl := newRedoTable(t, dir)
	var (
		b    Batch
		rows []tuple.Row
	)
	for i := int64(0); i < 300; i++ {
		// A name of its own per row keeps the names verbatim (one name
		// would be a dictionary slot of no bits), so 300 rows fill a page.
		rows = append(rows, redoRow(i, i%3, fmt.Sprintf("filler-%c%c", 'a'+i%26, 'a'+i/26)))
		b.Insert(rows[i])
	}
	res, err := tbl.Apply(&b, WithResultRIDs())
	if err != nil {
		t.Fatal(err)
	}
	full := res.RIDs[0].Page
	if res.RIDs[len(res.RIDs)-1].Page == full {
		t.Fatal("300 rows fit one page: the first page is not full")
	}
	y := redoRow(1000, 1, strings.Repeat("y", 300))
	var slot storage.RID
	if err := tbl.Heap().VisitPage(full, func(sp *storage.SlottedPage, _ bool) bool {
		if sp.AvailableBytes() >= 300 {
			t.Fatalf("the full page has %d bytes free", sp.AvailableBytes())
		}
		slot = storage.RID{Page: full, Slot: uint16(sp.NumSlots())}
		return false
	}); err != nil {
		t.Fatal(err)
	}
	logApply(t, tbl, slot, y, nil)
	at := checkRedoRows(t, recoverCopy(t, dir), append(rows, y)...)
	if at[1000].Page == full {
		t.Fatalf("y landed on the full page at %v", at[1000])
	}
}
