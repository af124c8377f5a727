package core

import (
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// A GC pass is a raw trip through the write stages, so its batch
// record is its redo record. These tests crash-copy an engine after a
// runtime pass, with no checkpoint after it, and recover from the log.

// TestRuntimeGCThenCrashKeepsRIDs updates 200 rows in transactions,
// checkpoints (the image holds the dead versions, the manifest their
// metas), collects them, and raw-inserts 200 rows into the freed room.
// A recovered copy holds every row at the RID its write was acked with:
// redo frees the collected slots before the inserts' puts land there.
func TestRuntimeGCThenCrashKeepsRIDs(t *testing.T) {
	dir := t.TempDir()
	e, tbl := newRedoTable(t, dir)
	const n = 200
	want := map[int64]tuple.Row{}
	var b Batch
	for i := int64(0); i < n; i++ {
		want[i] = redoRow(i, i%7, fmt.Sprintf("row %03d", i))
		b.Insert(want[i])
	}
	if _, err := tbl.Apply(&b); err != nil {
		t.Fatal(err)
	}
	byID := mustIndex(t, tbl, "by_id")
	for lo := int64(0); lo < n; lo += 20 {
		tx := e.Begin()
		b.Reset()
		for i := lo; i < lo+20; i++ {
			rid, ok, err := byID.LookupRID(tuple.Int64(i))
			if err != nil || !ok {
				t.Fatalf("LookupRID(%d): %v %v", i, ok, err)
			}
			want[i] = redoRow(i, i%5, fmt.Sprintf("new %03d", i))
			b.Update(rid, want[i])
		}
		if _, err := tx.Apply(tbl, &b); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := e.RunGC(); got != n {
		t.Fatalf("RunGC collected %d versions, want %d", got, n)
	}
	b.Reset()
	for i := int64(n); i < 2*n; i++ {
		want[i] = redoRow(i, i%7, fmt.Sprintf("raw %03d", i))
		b.Insert(want[i])
	}
	if _, err := tbl.Apply(&b); err != nil {
		t.Fatal(err)
	}
	acked := map[int64]storage.RID{}
	rows := make([]tuple.Row, 0, len(want))
	for i := int64(0); i < 2*n; i++ {
		rid, ok, err := byID.LookupRID(tuple.Int64(i))
		if err != nil || !ok {
			t.Fatalf("LookupRID(%d): %v %v", i, ok, err)
		}
		acked[i] = rid
		rows = append(rows, want[i])
	}

	at := checkRedoRows(t, recoverCopy(t, dir), rows...)
	moved := 0
	for i, rid := range acked {
		if at[i] != rid {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d of %d rows came back at a RID other than the acked one", moved, len(acked))
	}
}

// TestGCRecordReplaysAsDeletes collects versions that transactions
// superseded: each one's unique entry names the newer version, so the
// pass's stage 2 leaves it and removes only the non-unique entry, which
// names the collected row. The pass's record holds exactly those
// removals, as deletes, beside the heap frees; replayed, they leave
// both indexes holding the live rows only.
func TestGCRecordReplaysAsDeletes(t *testing.T) {
	dir := t.TempDir()
	e, tbl := newRedoTable(t, dir)
	const n = 20
	var rows []tuple.Row
	var b Batch
	for i := int64(0); i < n; i++ {
		b.Insert(redoRow(i, i, "old"))
	}
	res, err := tbl.Apply(&b, WithResultRIDs())
	if err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	b.Reset()
	for i, rid := range res.RIDs {
		rows = append(rows, redoRow(int64(i), int64(i)+100, "new"))
		b.Update(rid, rows[i])
	}
	if _, err := tx.Apply(tbl, &b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.RunGC(); got != n {
		t.Fatalf("RunGC collected %d versions, want %d", got, n)
	}

	// The last batch record in the log is the pass's.
	var dels, removed int
	var odd []string
	err = e.wal.Replay(0, func(_ uint64, typ uint8, payload []byte) error {
		if typ != recBatch {
			return nil
		}
		_, actions, err := decodeBatch(payload)
		dels, removed, odd = 0, 0, nil
		for _, a := range actions {
			switch {
			case a.kind == actDel:
				dels++
			case a.kind == actIdx && a.index == "by_tag":
				for _, en := range a.entries {
					if en.Op != btree.RunDelete {
						odd = append(odd, fmt.Sprintf("a by_tag entry replays as op %d", en.Op))
					}
					removed++
				}
			default:
				odd = append(odd, fmt.Sprintf("an action of kind %d on %q", a.kind, a.index))
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if dels != n || removed != n || odd != nil {
		t.Fatalf("the GC record frees %d rows and removes %d by_tag entries, want %d and %d; it also holds %v", dels, removed, n, n, odd)
	}
	checkRedoRows(t, recoverCopy(t, dir), rows...)
}
