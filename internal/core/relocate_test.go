package core

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// moveFixture opens an engine on opts holding 40 page rows, indexed by
// id in one leaf, and returns row 0's RID and a grown row 0 that cannot
// fit its page. The caller closes the engine.
func moveFixture(t *testing.T, opts Options) (*Engine, *Table, *Index, storage.RID, tuple.Row) {
	t.Helper()
	opts.PageSize, opts.BufferPoolPages = 1024, 128
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	tb, err := e.CreateTable("page", pagesSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	ix, err := tb.CreateIndex("by_id", []string{"page_id"})
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	var b Batch
	for i := 0; i < 40; i++ {
		b.Insert(pageRow(i))
	}
	if _, err := tb.Apply(&b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if ix.tree.Height() != 1 {
		t.Fatalf("index height %d, want one leaf", ix.tree.Height())
	}
	rid, found, err := ix.LookupRID(tuple.Int64(0))
	if err != nil || !found {
		t.Fatalf("LookupRID(0): found=%v err=%v", found, err)
	}
	return e, tb, ix, rid, grownPage(0, "x")
}

// grownPage is page row i with a 600-byte body of s.
func grownPage(i int, s string) tuple.Row {
	row := pageRow(i)
	row[7] = tuple.String(strings.Repeat(s, 600))
	return row
}

// parkMove starts tb.Update(rid, grown) with the index's one leaf held,
// so the update parks in its index stage, and returns once it has placed
// its new copy. release lets it go on; done gets its error.
func parkMove(t *testing.T, e *Engine, tb *Table, ix *Index, rid storage.RID, grown tuple.Row) (release func(), done <-chan error) {
	t.Helper()
	leaf, err := e.pool.Fetch(ix.tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	leaf.Latch.Lock()
	ch := make(chan error, 1)
	go func() {
		_, err := tb.Update(rid, grown)
		ch <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		st, err := tb.file.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.LiveRecords == 41 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the update never placed its new copy (%d records)", st.LiveRecords)
		}
	}
	return func() {
		leaf.Latch.Unlock()
		e.pool.Unpin(leaf, false)
	}, ch
}

// scanOnce reads tb in heap order and fails unless ids 0..39 each appear
// once, id 0 as want0.
func scanOnce(t *testing.T, tb *Table, want0 tuple.Row) {
	t.Helper()
	cur, err := tb.Query()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]int{}
	for cur.Next() {
		row := cur.Row()
		seen[row[0].Int]++
		if row[0].Int == 0 && !row.Equal(want0) {
			t.Errorf("heap scan: row 0 = %v, want %v", row, want0)
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		if seen[i] != 1 {
			t.Errorf("heap scan read id %d %d times, want once", i, seen[i])
		}
	}
	if len(seen) != 40 {
		t.Errorf("heap scan read %d ids, want 40", len(seen))
	}
}

// TestRelocatingUpdateAllocateFaultKeepsRow grows a row past its full
// page while the page the moved copy needs cannot be allocated. The
// update must fail without losing the row: the old copy stays readable
// at its RID and through its index, and the same update succeeds once
// the one-shot fault has fired.
func TestRelocatingUpdateAllocateFaultKeepsRow(t *testing.T) {
	inner, err := storage.NewMemDisk(1024)
	if err != nil {
		t.Fatal(err)
	}
	fd := storage.NewFaultDisk(inner, storage.FaultPlan{})
	e, tb, ix, rid, grown := moveFixture(t, Options{Disk: fd})
	defer e.Close()
	want := pageRow(0)

	fd.Rearm(storage.FaultPlan{Op: storage.FaultAllocate, After: 1, Mode: storage.FaultFail})
	if _, err := tb.Update(rid, grown); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Update = %v, want the injected allocation fault", err)
	}
	if !fd.Fired() {
		t.Fatal("the update never allocated: no page was too full to take it")
	}
	check := func(how string, rid storage.RID, want tuple.Row) {
		t.Helper()
		got, err := tb.Get(rid)
		if err != nil {
			t.Fatalf("%s: Get(%v): %v", how, rid, err)
		}
		if got[7].Str != want[7].Str {
			t.Fatalf("%s: content at %v is %q, want %q", how, rid, got[7].Str, want[7].Str)
		}
		row, res, err := ix.Lookup(nil, tuple.Int64(0))
		if err != nil || !res.Found {
			t.Fatalf("%s: Lookup(0): found=%v err=%v", how, res.Found, err)
		}
		if res.RID != rid || row[7].Str != want[7].Str {
			t.Fatalf("%s: Lookup(0) at %v reads %q, want %v reading %q", how, res.RID, row[7].Str, rid, want[7].Str)
		}
	}
	check("after the failed update", rid, want)
	if tb.Rows() != 40 {
		t.Errorf("Rows = %d after the failed update, want 40", tb.Rows())
	}

	moved, err := tb.Update(rid, grown)
	if err != nil {
		t.Fatalf("Update after the fault fired: %v", err)
	}
	if moved == rid {
		t.Fatalf("the grown row stayed at %v; it cannot fit its page", rid)
	}
	check("after the retried update", moved, grown)
	if pins := e.Pool().PinnedFrames(); pins != 0 {
		t.Errorf("%d frames still pinned", pins)
	}
}

// TestRelocationFreeFaultStopsTheEngine fails the last step of a
// relocating update: freeing the old copy, after the index entry was
// repointed to the new one. The trip's log record already removes the
// old copy, so a live engine that kept it would serve a row recovery
// would not. The engine stops instead — the update and every later read
// and write fail with buffer.ErrPoolClosed — and a reopen recovers from
// the log: a heap-order scan reads each row once, the moved row grown.
func TestRelocationFreeFaultStopsTheEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	inner, err := storage.NewFileDisk(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	fd := storage.NewFaultDisk(inner, storage.FaultPlan{})
	e, tb, ix, rid, grown := moveFixture(t, Options{Path: path, WAL: true, Disk: fd})
	if err := e.Checkpoint(); err != nil { // every page clean: evictable
		t.Fatalf("Checkpoint: %v", err)
	}

	// The update parks in its index stage, after the new copy is placed.
	// Meanwhile the old copy's page leaves the pool, so the free must
	// read it from disk, where the fault is armed.
	release, done := parkMove(t, e, tb, ix, rid, grown)
	if err := e.pool.EvictAll(); err != nil {
		t.Fatalf("EvictAll: %v", err)
	}
	fd.Rearm(storage.FaultPlan{Op: storage.FaultRead, After: 1, Mode: storage.FaultFail})
	release()
	err = <-done
	if !fd.Fired() {
		t.Fatalf("Update = %v; the free never read its page", err)
	}
	if !errors.Is(err, storage.ErrInjected) || !errors.Is(err, buffer.ErrPoolClosed) {
		t.Fatalf("Update = %v, want the injected read fault and buffer.ErrPoolClosed", err)
	}
	if _, _, err := ix.Lookup(nil, tuple.Int64(1)); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("Lookup after the stop = %v, want buffer.ErrPoolClosed", err)
	}
	if _, err := tb.Insert(pageRow(100)); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("Insert after the stop = %v, want buffer.ErrPoolClosed", err)
	}
	if cur, err := tb.Query(); err == nil {
		for cur.Next() {
		}
		if err := cur.Close(); !errors.Is(err, buffer.ErrPoolClosed) {
			t.Errorf("heap scan after the stop = %v, want buffer.ErrPoolClosed", err)
		}
	}
	if err := e.Close(); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("Close = %v, want the checkpoint refused with buffer.ErrPoolClosed", err)
	}

	e, err = NewEngine(Options{PageSize: 1024, BufferPoolPages: 128, Path: path, WAL: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e.Close()
	tb, err = e.Table("page")
	if err != nil {
		t.Fatal(err)
	}
	scanOnce(t, tb, grown)
	row, res, err := mustIndex(t, tb, "by_id").Lookup(nil, tuple.Int64(0))
	if err != nil || !res.Found || !row.Equal(grown) {
		t.Errorf("Lookup(0) after the reopen = %v (found %v, %v), want the grown row", row, res.Found, err)
	}
}

// TestRacingWriteOfAMovingRow: a delete of a row races an update that
// moves it, the update held in its index stage after placing the new
// copy. Exactly one of them frees the old copy; the other fails alone
// with storage.ErrDeleted, and the engine keeps serving — a free that
// finds its copy already gone is not the failed free that stops it.
func TestRacingWriteOfAMovingRow(t *testing.T) {
	e, tb, ix, rid, grown := moveFixture(t, Options{})
	defer e.Close()
	release, updated := parkMove(t, e, tb, ix, rid, grown)
	deleted := make(chan error, 1)
	go func() { deleted <- tb.Delete(rid) }()
	time.Sleep(5 * time.Millisecond) // the delete parks on the leaf too
	release()
	uerr, derr := <-updated, <-deleted
	if (uerr == nil) == (derr == nil) {
		t.Fatalf("update = %v, delete = %v; want exactly one to fail", uerr, derr)
	}
	if err := errors.Join(uerr, derr); !errors.Is(err, storage.ErrDeleted) || errors.Is(err, buffer.ErrPoolClosed) {
		t.Fatalf("the failed write: %v; want storage.ErrDeleted, the engine running", err)
	}
	if _, err := tb.Get(rid); !errors.Is(err, storage.ErrDeleted) {
		t.Errorf("Get of the old copy = %v, want it freed", err)
	}
	if row, res, err := ix.Lookup(nil, tuple.Int64(1)); err != nil || !res.Found || !row.Equal(pageRow(1)) {
		t.Errorf("Lookup(1) after the race = %v (found %v, %v)", row, res.Found, err)
	}
	if _, err := tb.Insert(pageRow(100)); err != nil {
		t.Errorf("Insert after the race: %v", err)
	}
	if pins := e.Pool().PinnedFrames(); pins != 0 {
		t.Errorf("%d frames still pinned", pins)
	}
}

// TestMovedRowFreeSparesAReusedSlot: while an update that moves row 0 is
// held in its index stage, a racing write frees the old copy and an
// insert reuses its slot for another row. The update's free must leave
// that row alone: the update fails alone with storage.ErrDeleted, and the
// other row stays readable at the slot.
func TestMovedRowFreeSparesAReusedSlot(t *testing.T) {
	e, tb, ix, rid, grown := moveFixture(t, Options{})
	defer e.Close()
	release, done := parkMove(t, e, tb, ix, rid, grown)
	if _, err := tb.file.Delete(rid); err != nil {
		t.Fatalf("the racing free: %v", err)
	}
	other, err := tuple.Encode(tb.schema, pageRow(100), nil)
	if err != nil {
		t.Fatal(err)
	}
	var slot uint16
	err = tb.file.VisitPage(rid.Page, func(sp *storage.SlottedPage, exclusive bool) bool {
		if !exclusive {
			t.Fatal("the page is latched: nothing else should hold it")
		}
		slot, err = sp.Insert(other)
		return err == nil
	})
	if err != nil || slot != rid.Slot {
		t.Fatalf("the reusing insert took slot %d (%v), want %d", slot, err, rid.Slot)
	}
	release()
	if err := <-done; !errors.Is(err, storage.ErrDeleted) || errors.Is(err, buffer.ErrPoolClosed) {
		t.Fatalf("Update = %v; want storage.ErrDeleted, the engine running", err)
	}
	if got, err := tb.Get(rid); err != nil || !got.Equal(pageRow(100)) {
		t.Fatalf("the reused slot after the update's free: %v, %v; want row 100", got, err)
	}
	if pins := e.Pool().PinnedFrames(); pins != 0 {
		t.Errorf("%d frames still pinned", pins)
	}
}

// TestRawDeleteLogsTheRecordItFreed: a delete of row 0 has read its
// pre-image and waits on the index leaf when an in-place update of the
// row, same key, lands and is acked. The delete then frees the updated
// record, so its log record must name that record, not the pre-image:
// redo removes only the record a delete's sum names. A reopen from the
// log alone holds 39 rows and no row 0, as the live engine did.
func TestRawDeleteLogsTheRecordItFreed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	e, tb, ix, rid, _ := moveFixture(t, Options{Path: path, WAL: true})
	leaf, err := e.pool.Fetch(ix.tree.Root())
	if err != nil {
		t.Fatal(err)
	}
	leaf.Latch.Lock()
	st := e.pool.Stats()
	fetched := st.Hits + st.Misses
	deleted := make(chan error, 1)
	go func() { deleted <- tb.Delete(rid) }()
	// Pre-flight fetches the heap page, then stage 2 the leaf.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if st := e.pool.Stats(); st.Hits+st.Misses >= fetched+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the delete never reached the leaf")
		}
	}
	small := pageRow(0)
	small[7] = tuple.String("BODY OF ARTICLE 0") // fits in place
	if to, err := tb.Update(rid, small); err != nil || to != rid {
		t.Fatalf("in-place Update = %v, %v; want it at %v", to, err, rid)
	}
	leaf.Latch.Unlock()
	e.pool.Unpin(leaf, false)
	if err := <-deleted; err != nil {
		t.Fatalf("Delete: %v", err)
	}
	check := func(how string, tb *Table) {
		t.Helper()
		if n := tb.Rows(); n != 39 {
			t.Errorf("%s: Rows = %d, want 39", how, n)
		}
		if _, lr, err := mustIndex(t, tb, "by_id").Lookup(nil, tuple.Int64(0)); err != nil || lr.Found {
			t.Errorf("%s: Lookup(0) found=%v (%v), want the row deleted", how, lr.Found, err)
		}
	}
	check("live", tb)

	// Stop without a checkpoint: the reopen replays the log.
	_ = e.pool.Close()
	_ = e.Close()
	if e, err = NewEngine(Options{PageSize: 1024, BufferPoolPages: 128, Path: path, WAL: true}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e.Close()
	if tb, err = e.Table("page"); err != nil {
		t.Fatal(err)
	}
	check("after the reopen", tb)
}

// TestSameRowTwiceInOneBatch lands two ops on row 0 in one batch, as the server's coalescer may when two clients write the same
// row. The first op's effect stays whole: once it has moved the row off
// its RID, a later op there fails with storage.ErrDeleted, as it would
// on a freed slot, and so does a delete after any update of the row. An
// update after an in-place update moves the row as usual. Each case
// checks the per-op errors, the lookup, and that a heap-order scan reads
// the row once, live and again after the log replays the batch.
func TestSameRowTwiceInOneBatch(t *testing.T) {
	small := pageRow(0)
	small[7] = tuple.String("BODY OF ARTICLE 0") // fits in place
	for _, tc := range []struct {
		name       string
		ops        func(b *Batch, rid storage.RID)
		want       tuple.Row // row 0 after the batch
		failSecond bool
		inPlace    bool // row 0 stays at its RID
	}{
		{"move then delete", func(b *Batch, rid storage.RID) { b.Update(rid, grownPage(0, "x")).Delete(rid) }, grownPage(0, "x"), true, false},
		{"move then move", func(b *Batch, rid storage.RID) { b.Update(rid, grownPage(0, "x")).Update(rid, grownPage(0, "y")) }, grownPage(0, "x"), true, false},
		{"move then in place", func(b *Batch, rid storage.RID) { b.Update(rid, grownPage(0, "x")).Update(rid, small) }, grownPage(0, "x"), true, false},
		{"in place then move", func(b *Batch, rid storage.RID) { b.Update(rid, small).Update(rid, grownPage(0, "y")) }, grownPage(0, "y"), false, false},
		{"in place then delete", func(b *Batch, rid storage.RID) { b.Update(rid, small).Delete(rid) }, small, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "db")
			e, tb, ix, rid, _ := moveFixture(t, Options{Path: path, WAL: true})
			var b Batch
			tc.ops(&b, rid)
			res, err := tb.Apply(&b)
			if err != opErr(res, 1) {
				t.Errorf("Apply = %v, want op 1's error %v", err, opErr(res, 1))
			}
			if err := opErr(res, 0); err != nil {
				t.Errorf("op 0: %v", err)
			}
			if err := opErr(res, 1); tc.failSecond && !errors.Is(err, storage.ErrDeleted) {
				t.Errorf("op 1 = %v, want storage.ErrDeleted", err)
			} else if !tc.failSecond && err != nil {
				t.Errorf("op 1: %v", err)
			}
			row, lr, err := ix.Lookup(nil, tuple.Int64(0))
			if err != nil || !lr.Found || !row.Equal(tc.want) {
				t.Errorf("Lookup(0) = %v (found %v, %v), want %v", row, lr.Found, err, tc.want)
			}
			if got, err := tb.Get(rid); tc.inPlace && (err != nil || !got.Equal(tc.want)) {
				t.Errorf("Get(%v) = %v, %v, want %v", rid, got, err, tc.want)
			} else if !tc.inPlace && !errors.Is(err, storage.ErrDeleted) {
				t.Errorf("Get of the old copy = %v, want it freed", err)
			}
			scanOnce(t, tb, tc.want)
			if tb.Rows() != 40 {
				t.Errorf("Rows = %d, want 40", tb.Rows())
			}

			// Stop without a checkpoint: the reopen replays the batch.
			_ = e.pool.Close()
			_ = e.Close()
			e, err = NewEngine(Options{PageSize: 1024, BufferPoolPages: 128, Path: path, WAL: true})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer e.Close()
			if tb, err = e.Table("page"); err != nil {
				t.Fatal(err)
			}
			scanOnce(t, tb, tc.want)
			row, lr, err = mustIndex(t, tb, "by_id").Lookup(nil, tuple.Int64(0))
			if err != nil || !lr.Found || !row.Equal(tc.want) {
				t.Errorf("Lookup(0) after the reopen = %v (found %v, %v), want %v", row, lr.Found, err, tc.want)
			}
		})
	}
}

// TestRelocateKeepsTheRowFindable: Table.Relocate moves a row through
// the write stages as a relocating update does — new copy, entries
// repointed, old copy freed — so while one goroutine relocates row 0
// 5,000 times, no point read of its key answers not-found. (As a delete
// plus an insert it missed 10–40 % of them, between the delete's
// entries leaving and the insert's arriving.) A heap scan then reads
// the row once, live and again after the log replays the moves.
func TestRelocateKeepsTheRowFindable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	e, tb, ix, rid, _ := moveFixture(t, Options{Path: path, WAL: true, SyncPolicy: SyncNone})
	want := pageRow(0)
	const relocations = 5000
	moved := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < relocations && err == nil; i++ {
			rid, err = tb.Relocate(rid)
		}
		moved <- err
	}()
	misses, lookups := 0, 0
	for running := true; running; lookups++ {
		select {
		case err := <-moved:
			if err != nil {
				t.Fatalf("Relocate: %v", err)
			}
			running = false
		default:
		}
		row, lr, err := ix.Lookup(nil, tuple.Int64(0))
		if err != nil {
			t.Fatalf("Lookup(0): %v", err)
		}
		if !lr.Found {
			misses++
		} else if !row.Equal(want) {
			t.Fatalf("Lookup(0) = %v, want %v", row, want)
		}
	}
	if misses != 0 {
		t.Errorf("%d of %d lookups of id 0 answered not-found during %d relocations", misses, lookups, relocations)
	}
	scanOnce(t, tb, want)
	if tb.Rows() != 40 {
		t.Errorf("Rows = %d, want 40", tb.Rows())
	}

	// Stop without a checkpoint: the reopen replays every move.
	_ = e.pool.Close()
	_ = e.Close()
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 128, Path: path, WAL: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e.Close()
	if tb, err = e.Table("page"); err != nil {
		t.Fatal(err)
	}
	scanOnce(t, tb, want)
	row, lr, err := mustIndex(t, tb, "by_id").Lookup(nil, tuple.Int64(0))
	if err != nil || !lr.Found || !row.Equal(want) {
		t.Errorf("Lookup(0) after the reopen = %v (found %v, %v), want %v", row, lr.Found, err, want)
	}
}
