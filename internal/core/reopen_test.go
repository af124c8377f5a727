package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"

	"repro/internal/buffer"
	"repro/internal/tuple"
)

func walTestOptions(dir string) Options {
	return Options{
		Path:            filepath.Join(dir, "db"),
		PageSize:        4096,
		BufferPoolPages: 256,
		WAL:             true,
	}
}

// TestSyncPolicies commits one-row Applies from 8 writers under each
// SyncPolicy and checks the log's counters around them: SyncAlways
// fsyncs once per append, group commit at least once and at most once
// per append, SyncNone never.
func TestSyncPolicies(t *testing.T) {
	const (
		writers   = 8
		perWriter = 10 // 80 rows: below the layout sample, so no adoption record
	)
	for _, tc := range []struct {
		name   string
		policy SyncPolicy
		ok     func(appends, syncs int64) bool
	}{
		{"always", SyncAlways, func(a, s int64) bool { return s == a }},
		{"group_commit", SyncGroupCommit, func(a, s int64) bool { return 1 <= s && s <= a }},
		{"none", SyncNone, func(a, s int64) bool { return s == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := noCheckpointOptions(t.TempDir())
			opts.SyncPolicy = tc.policy
			e, err := NewEngine(opts)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			defer e.Close()
			tb, err := e.CreateTable("t", reopenSchema(t))
			if err != nil {
				t.Fatal(err)
			}
			before := e.WALStats()
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						if _, err := tb.Insert(reopenRow(w*perWriter + i)); err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			after := e.WALStats()
			appends, syncs := after.Appends-before.Appends, after.Syncs-before.Syncs
			if appends != writers*perWriter {
				t.Errorf("%d appends, want one per Apply (%d)", appends, writers*perWriter)
			}
			if !tc.ok(appends, syncs) {
				t.Errorf("%d syncs for %d appends", syncs, appends)
			}
		})
	}
}

func reopenSchema(t *testing.T) *tuple.Schema {
	t.Helper()
	s, err := tuple.NewSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "grp", Kind: tuple.KindInt32},
		tuple.Field{Name: "val", Kind: tuple.KindInt64},
		tuple.Field{Name: "name", Kind: tuple.KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func reopenRow(i int) tuple.Row {
	return tuple.Row{
		tuple.Int64(int64(i)),
		tuple.Int32(int32(i % 7)),
		tuple.Int64(int64(i * 100)),
		tuple.String(fmt.Sprintf("row-%04d", i)),
	}
}

// TestReopenCleanClose is the no-crash durability regression: build a
// database on a FileDisk, close it cleanly, reopen it, and verify the
// catalog, row contents in both heap and index order, point lookups,
// and cached lookups all survived the round trip.
func TestReopenCleanClose(t *testing.T) {
	dir := t.TempDir()
	opts := walTestOptions(dir)

	const rows = 500
	deleted := map[int]bool{}

	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("users", reopenSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := 0; i < rows; i++ {
		b.Insert(reopenRow(i))
	}
	if _, err := tbl.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_id", []string{"id"}, WithCache("val")); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_grp", []string{"grp"}, NonUnique()); err != nil {
		t.Fatal(err)
	}
	// Post-index churn so the WAL holds index runs too: update a third,
	// delete a tenth.
	for i := 0; i < rows; i += 3 {
		rid, okk, err := mustIndex(t, tbl, "by_id").LookupRID(tuple.Int64(int64(i)))
		if err != nil || !okk {
			t.Fatalf("lookup rid %d: ok=%v err=%v", i, okk, err)
		}
		row := reopenRow(i)
		row[2] = tuple.Int64(int64(i*100 + 1))
		if _, err := tbl.Update(rid, row); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i < rows; i += 10 {
		rid, okk, err := mustIndex(t, tbl, "by_id").LookupRID(tuple.Int64(int64(i)))
		if err != nil || !okk {
			t.Fatalf("lookup rid %d: ok=%v err=%v", i, okk, err)
		}
		if err := tbl.Delete(rid); err != nil {
			t.Fatal(err)
		}
		deleted[i] = true
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen and verify everything.
	e2, err := NewEngine(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	if got := e2.Tables(); len(got) != 1 || got[0] != "users" {
		t.Fatalf("tables after reopen: %v", got)
	}
	tbl2, err := e2.Table("users")
	if err != nil {
		t.Fatal(err)
	}
	live := rows - len(deleted)
	if got := tbl2.Rows(); got != int64(live) {
		t.Fatalf("rows after reopen: got %d want %d", got, live)
	}
	if names := schemaFieldNames(tbl2.Schema()); len(names) != 4 || names[0] != "id" || names[3] != "name" {
		t.Fatalf("schema after reopen: %v", names)
	}
	byID, errID := tbl2.Index("by_id")
	byGrp, errGrp := tbl2.Index("by_grp")
	if len(tbl2.indexes) != 2 || errID != nil || errGrp != nil {
		t.Fatalf("indexes after reopen: %v, %v, %v", tbl2.indexes, errID, errGrp)
	}

	wantVal := func(i int) int64 {
		if i%3 == 0 {
			return int64(i*100 + 1)
		}
		return int64(i * 100)
	}

	// Heap-order cursor.
	seen := map[int64]bool{}
	cur, err := tbl2.Query()
	if err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
		row := cur.Row()
		id := row[0].Int
		if deleted[int(id)] {
			t.Fatalf("deleted row %d visible after reopen", id)
		}
		if seen[id] {
			t.Fatalf("row %d seen twice", id)
		}
		seen[id] = true
		if got := row[2].Int; got != wantVal(int(id)) {
			t.Fatalf("row %d: val %d want %d", id, got, wantVal(int(id)))
		}
		if got := row[3].Str; got != fmt.Sprintf("row-%04d", id) {
			t.Fatalf("row %d: name %q", id, got)
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	cur.Close()
	if len(seen) != live {
		t.Fatalf("heap scan saw %d rows, want %d", len(seen), live)
	}

	// Index-order cursor over the non-unique index.
	n := 0
	prev := int32(-1)
	icur, err := byGrp.Query()
	if err != nil {
		t.Fatal(err)
	}
	for icur.Next() {
		g := int32(icur.Row()[1].Int)
		if g < prev {
			t.Fatalf("by_grp out of order: %d after %d", g, prev)
		}
		prev = g
		n++
	}
	if err := icur.Err(); err != nil {
		t.Fatal(err)
	}
	icur.Close()
	if n != live {
		t.Fatalf("index scan saw %d rows, want %d", n, live)
	}

	// Point lookups, twice: the first pass seeds the reopened (cold)
	// index cache, the second must serve identical data — stale bytes a
	// pre-close leaf flush persisted must never surface.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < rows; i++ {
			row, _, err := byID.Lookup([]string{"id", "val"}, tuple.Int64(int64(i)))
			if deleted[i] {
				if err == nil && row != nil {
					t.Fatalf("pass %d: deleted row %d found", pass, i)
				}
				continue
			}
			if err != nil {
				t.Fatalf("pass %d: lookup %d: %v", pass, i, err)
			}
			if got := row[1].Int; got != wantVal(i) {
				t.Fatalf("pass %d: lookup %d: val %d want %d", pass, i, got, wantVal(i))
			}
		}
	}

	// The engine must still accept writes after recovery.
	if _, err := tbl2.Insert(reopenRow(rows + 1)); err != nil {
		t.Fatalf("insert after reopen: %v", err)
	}
}

// TestReopenSecondGeneration closes and reopens twice, with writes in
// between — the second recovery starts from the first recovery's
// terminal checkpoint.
func TestReopenSecondGeneration(t *testing.T) {
	dir := t.TempDir()
	opts := walTestOptions(dir)

	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("kv", reopenSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_id", []string{"id"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tbl.Insert(reopenRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = NewEngine(opts)
	if err != nil {
		t.Fatalf("first reopen: %v", err)
	}
	tbl, err = e.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 200; i++ {
		if _, err := tbl.Insert(reopenRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = NewEngine(opts)
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer e.Close()
	tbl, err = e.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Rows(); got != 200 {
		t.Fatalf("rows: got %d want 200", got)
	}
	ix, err := tbl.Index("by_id")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, _, err := ix.Lookup(nil, tuple.Int64(int64(i))); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
}

// TestDropTableSurvivesReopen verifies DDL replay handles drops: a
// table created and dropped before the crash horizon must not
// resurrect.
func TestDropTableSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	opts := walTestOptions(dir)

	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("keep", reopenSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("gone", reopenSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.DropTable("gone"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = NewEngine(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e.Close()
	if got := e.Tables(); len(got) != 1 || got[0] != "keep" {
		t.Fatalf("tables after reopen: %v", got)
	}
}

// TestWALRequiresPath pins the constructor contract.
func TestWALRequiresPath(t *testing.T) {
	if _, err := NewEngine(Options{WAL: true}); err == nil {
		t.Fatal("WAL without Path should fail")
	}
}

// TestCloseRemovesNothing sanity-checks the side files a WAL engine
// leaves behind: database, wal, manifest — and no stale .dw.
func TestCloseRemovesNothing(t *testing.T) {
	dir := t.TempDir()
	opts := walTestOptions(dir)
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateTable("t", reopenSchema(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"db", "db.wal", "db.manifest"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Fatalf("missing %s after close: %v", want, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "db.dw")); !os.IsNotExist(err) {
		t.Fatalf("stale double-write file after clean close (err=%v)", err)
	}
}

func schemaFieldNames(s *tuple.Schema) []string {
	fs := s.Fields()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return names
}

func mustIndex(t *testing.T, tbl *Table, name string) *Index {
	t.Helper()
	ix, err := tbl.Index(name)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestRawAppendFaultStopsTheEngine fails the log's write of a raw
// insert's record after the insert landed in the pool, as a full disk
// would. The engine stops: the insert reports the append error and
// buffer.ErrPoolClosed, and so does every later read and write, so
// nothing the log lacks is served or acked. A reopen holds exactly the
// acked rows.
func TestRawAppendFaultStopsTheEngine(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(walTestOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	tb := kvTable(t, e)
	rid, err := tb.Insert(kvRow(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	e.wal.FailWrite(1, syscall.ENOSPC)
	if _, err := tb.Insert(kvRow(2, 20)); !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, buffer.ErrPoolClosed) {
		t.Fatalf("Insert(2) = %v, want the append error and buffer.ErrPoolClosed", err)
	}
	if _, _, err := tb.indexes["by_k"].LookupRID(tuple.Int64(2)); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("LookupRID(2) after the stop = %v, want buffer.ErrPoolClosed", err)
	}
	if _, err := tb.Update(rid, kvRow(1, 11)); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("Update(1) after the stop = %v, want buffer.ErrPoolClosed", err)
	}
	if _, err := tb.Insert(kvRow(3, 30)); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("Insert(3) after the stop = %v, want buffer.ErrPoolClosed", err)
	}
	if err := e.Close(); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("Close = %v, want the checkpoint refused with buffer.ErrPoolClosed", err)
	}

	if e, err = NewEngine(walTestOptions(dir)); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e.Close()
	if tb, err = e.Table("kv"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t)(tb.Query()); len(got) != 1 || got[1] != 10 {
		t.Fatalf("reopened rows = %v, want exactly the acked {1: 10}", got)
	}
}
