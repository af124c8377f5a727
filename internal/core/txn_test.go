package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/tuple"
)

func kvSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "k", Kind: tuple.KindInt64},
		tuple.Field{Name: "v", Kind: tuple.KindInt64},
	)
}

func kvRow(k, v int64) tuple.Row {
	return tuple.Row{tuple.Int64(k), tuple.Int64(v)}
}

func kvTable(t *testing.T, e *Engine) *Table {
	t.Helper()
	tb, err := e.CreateTable("kv", kvSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tb.CreateIndex("by_k", []string{"k"}); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	return tb
}

// readAll returns a drain function usable directly around a Query call:
// readAll(t)(tb.Query(...)) yields the k→v map.
func readAll(t *testing.T) func(*Cursor, error) map[int64]int64 {
	return func(cur *Cursor, err error) map[int64]int64 {
		t.Helper()
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		defer cur.Close()
		out := make(map[int64]int64)
		for cur.Next() {
			r := cur.Row()
			out[r[0].Int] = r[1].Int
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("cursor: %v", err)
		}
		return out
	}
}

func TestTxnCommitAtomicAndSnapshot(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)

	// Pre-transactional row, committed via the raw path.
	if _, err := tb.Insert(kvRow(1, 10)); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	before := e.Begin() // snapshot taken before the txn commits
	defer before.Abort()

	tx := e.Begin()
	var b Batch
	b.Insert(kvRow(2, 20))
	b.Insert(kvRow(3, 30))
	if _, err := tx.Apply(tb, &b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// Nothing applied yet: latest reads see only row 1.
	if got := readAll(t)(tb.Query()); len(got) != 1 {
		t.Fatalf("pre-commit rows = %v, want only k=1", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Latest sees all three, the old snapshot still sees only row 1.
	got := readAll(t)(tb.Query())
	if len(got) != 3 || got[2] != 20 || got[3] != 30 {
		t.Fatalf("post-commit rows = %v", got)
	}
	old := readAll(t)(before.Query(tb))
	if len(old) != 1 || old[1] != 10 {
		t.Fatalf("snapshot rows = %v, want only k=1", old)
	}
	if tb.Rows() != 3 {
		t.Fatalf("Rows() = %d, want 3", tb.Rows())
	}
}

func TestTxnSnapshotSeesOldVersionThroughIndex(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)

	tx0 := e.Begin()
	var b Batch
	b.Insert(kvRow(7, 70))
	if _, err := tx0.Apply(tb, &b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := tx0.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	snap := e.Begin()
	defer snap.Abort()

	// Update k=7 twice after the snapshot pinned.
	for i, v := range []int64{71, 72} {
		rid, _, err := tb.indexes["by_k"].LookupRID(tuple.Int64(7))
		if err != nil {
			t.Fatalf("LookupRID: %v", err)
		}
		tx := e.Begin()
		var ub Batch
		ub.Update(rid, kvRow(7, v))
		if _, err := tx.Apply(tb, &ub); err != nil {
			t.Fatalf("update %d Apply: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("update %d Commit: %v", i, err)
		}
	}

	// Latest: 72, via heap order, index order, and unique lookup.
	if got := readAll(t)(tb.Query()); got[7] != 72 {
		t.Fatalf("latest heap read = %v, want 72", got)
	}
	if got := readAll(t)(tb.Query(WithIndex("by_k"))); got[7] != 72 {
		t.Fatalf("latest index read = %v, want 72", got)
	}
	// Snapshot: the original 70, through both shapes.
	if got := readAll(t)(snap.Query(tb)); got[7] != 70 || len(got) != 1 {
		t.Fatalf("snapshot heap read = %v, want {7:70}", got)
	}
	if got := readAll(t)(snap.Query(tb, WithIndex("by_k"))); got[7] != 70 || len(got) != 1 {
		t.Fatalf("snapshot index read = %v, want {7:70}", got)
	}
}

func TestTxnFirstCommitterWins(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)
	rid, err := tb.Insert(kvRow(1, 10))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}

	t1, t2 := e.Begin(), e.Begin()
	var b1, b2 Batch
	b1.Update(rid, kvRow(1, 11))
	b2.Update(rid, kvRow(1, 12))
	if _, err := t1.Apply(tb, &b1); err != nil {
		t.Fatalf("t1 Apply: %v", err)
	}
	if _, err := t2.Apply(tb, &b2); err != nil {
		t.Fatalf("t2 Apply: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1 Commit: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("t2 Commit = %v, want ErrTxnConflict", err)
	}
	if got := readAll(t)(tb.Query()); got[1] != 11 {
		t.Fatalf("rows = %v, want first committer's 11", got)
	}
}

func TestTxnDeleteAndKeyReuse(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)
	ix := tb.indexes["by_k"]

	tx := e.Begin()
	var b Batch
	b.Insert(kvRow(5, 50))
	if _, err := tx.Apply(tb, &b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	snap := e.Begin() // pins k=5 → 50
	defer snap.Abort()

	// Delete k=5, then re-insert it with a new value in a later txn —
	// the unique entry is reused and must chain to the dead holder.
	rid, _, err := ix.LookupRID(tuple.Int64(5))
	if err != nil {
		t.Fatalf("LookupRID: %v", err)
	}
	del := e.Begin()
	var db Batch
	db.Delete(rid)
	if _, err := del.Apply(tb, &db); err != nil {
		t.Fatalf("delete Apply: %v", err)
	}
	if err := del.Commit(); err != nil {
		t.Fatalf("delete Commit: %v", err)
	}
	if _, found, err := ix.LookupRID(tuple.Int64(5)); err != nil || found {
		t.Fatalf("LookupRID after delete = found=%v err=%v, want not found", found, err)
	}

	re := e.Begin()
	var rb Batch
	rb.Insert(kvRow(5, 55))
	if _, err := re.Apply(tb, &rb); err != nil {
		t.Fatalf("reinsert Apply: %v", err)
	}
	if err := re.Commit(); err != nil {
		t.Fatalf("reinsert Commit: %v", err)
	}

	if got := readAll(t)(tb.Query(WithIndex("by_k"))); got[5] != 55 {
		t.Fatalf("latest = %v, want {5:55}", got)
	}
	// The pinned snapshot still sees the original 50 through the reused
	// unique entry (per-key version chain across key reuse).
	if got := readAll(t)(snap.Query(tb, WithIndex("by_k"))); got[5] != 50 || len(got) != 1 {
		t.Fatalf("snapshot = %v, want {5:50}", got)
	}
}

func TestTxnGCUnlinksDeadVersions(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)
	ix := tb.indexes["by_k"]

	const n = 50
	tx := e.Begin()
	var b Batch
	for i := 0; i < n; i++ {
		b.Insert(kvRow(int64(i), int64(i)))
	}
	if _, err := tx.Apply(tb, &b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// Update the even rows, delete the odd ones: one dead version each.
	for i := 0; i < n; i++ {
		rid, _, err := ix.LookupRID(tuple.Int64(int64(i)))
		if err != nil {
			t.Fatalf("LookupRID: %v", err)
		}
		u := e.Begin()
		var ub Batch
		if i%2 == 1 {
			ub.Delete(rid)
		} else {
			ub.Update(rid, kvRow(int64(i), int64(i+1000)))
		}
		if _, err := u.Apply(tb, &ub); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
		if err := u.Commit(); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}

	removed := e.RunGC()
	if removed != n {
		t.Fatalf("RunGC removed %d versions, want %d (one dead version per row)", removed, n)
	}
	// Version map fully flattened: metas of live rows at/below the
	// watermark are pruned too.
	// Collected versions leave tombstones (cleared on RID reuse); only
	// non-tombstone metas must be gone.
	tb.vers.mu.RLock()
	left := 0
	for _, m := range tb.vers.m {
		if m.prev != tombstonePrev {
			left++
		}
	}
	tb.vers.mu.RUnlock()
	if left != 0 {
		t.Fatalf("%d live version metas left after GC, want 0", left)
	}
	// Index entries of deleted keys are gone; tree matches live rows.
	if got := int(ix.tree.Len()); got != n/2 {
		t.Fatalf("tree has %d entries after GC, want %d", got, n/2)
	}
	got := readAll(t)(tb.Query(WithIndex("by_k")))
	if len(got) != n/2 {
		t.Fatalf("%d rows after GC, want %d", len(got), n/2)
	}
	for k, v := range got {
		if k%2 != 0 || v != k+1000 {
			t.Fatalf("row %d=%d unexpected after GC", k, v)
		}
	}
	if tb.Rows() != int64(n/2) {
		t.Fatalf("Rows() = %d, want %d", tb.Rows(), n/2)
	}
}

// TestTxnGCIndexFaultStopsTheEngine fails the index descent of a GC
// pass that collects a row a transaction deleted. The pass is a trip
// through the write stages with no caller to report to, so a failed
// index run stops the engine — every later read and write fails with
// buffer.ErrPoolClosed — and a reopen redoes the pass from the
// manifest's metas: the key can be inserted again.
func TestTxnGCIndexFaultStopsTheEngine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db")
	inner, err := storage.NewFileDisk(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	fd := storage.NewFaultDisk(inner, storage.FaultPlan{})
	e, tb, ix, rid, _ := moveFixture(t, Options{Path: path, WAL: true, Disk: fd})
	tx := e.Begin()
	if _, err := tx.Apply(tb, new(Batch).Delete(rid)); err != nil {
		t.Fatalf("txn Delete: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := e.Checkpoint(); err != nil { // the manifest holds the dead meta
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := e.pool.EvictAll(); err != nil {
		t.Fatalf("EvictAll: %v", err)
	}
	// The trip's pre-flight reads the heap page first, then stage 2 the
	// index leaf.
	fd.Rearm(storage.FaultPlan{Op: storage.FaultRead, After: 2, Mode: storage.FaultFail})
	e.RunGC()
	if !fd.Fired() {
		t.Fatal("the GC pass never read the index")
	}
	if _, err := tb.Insert(pageRow(0)); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("Insert after the stop = %v, want buffer.ErrPoolClosed", err)
	}
	if _, _, err := ix.Lookup(nil, tuple.Int64(1)); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("Lookup after the stop = %v, want buffer.ErrPoolClosed", err)
	}
	if err := e.Close(); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("Close = %v, want the checkpoint refused with buffer.ErrPoolClosed", err)
	}

	e, err = NewEngine(Options{PageSize: 1024, BufferPoolPages: 128, Path: path, WAL: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e.Close()
	if tb, err = e.Table("page"); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(pageRow(0)); err != nil {
		t.Fatalf("raw insert of the collected key after the reopen: %v", err)
	}
	row, res, err := mustIndex(t, tb, "by_id").Lookup(nil, tuple.Int64(0))
	if err != nil || !res.Found || !row.Equal(pageRow(0)) {
		t.Errorf("Lookup(0) after the reopen = %v (found %v, %v), want the new row", row, res.Found, err)
	}
}

// TestTxnRollbackFaultStopsTheEngine fails the rollback of a failed
// commit: the commit's second table faults on its first page read, and
// while that fault fires the first table's pages leave the pool, so
// deleting the fresh index entry the first table landed faults on its
// leaf. The entry left behind would name a row dead at birth. The
// engine stops instead: the commit reports buffer.ErrPoolClosed beside
// the first fault, and so does every later op.
func TestTxnRollbackFaultStopsTheEngine(t *testing.T) {
	inner, err := storage.NewMemDisk(1024)
	if err != nil {
		t.Fatal(err)
	}
	fd := storage.NewFaultDisk(inner, storage.FaultPlan{})
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 128, Disk: fd})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	tb := kvTable(t, e)
	tb2, err := e.CreateTable("kv2", kvSchema())
	if err != nil {
		t.Fatalf("CreateTable kv2: %v", err)
	}
	if _, err := tb2.CreateIndex("by_k2", []string{"k"}); err != nil {
		t.Fatalf("CreateIndex kv2: %v", err)
	}
	rid, err := tb.Insert(kvRow(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb2.Insert(kvRow(1, 10)); err != nil {
		t.Fatal(err)
	}
	if err := e.pool.EvictAll(); err != nil {
		t.Fatalf("EvictAll: %v", err)
	}
	// kv's heap page and both index leaves back in the pool: the unique
	// checks and kv's trip read nothing, so the first read is kv2's trip.
	if _, err := tb.Get(rid); err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*Index{tb.indexes["by_k"], tb2.indexes["by_k2"]} {
		if _, found, err := ix.LookupRID(tuple.Int64(1)); err != nil || !found {
			t.Fatalf("LookupRID(1): found=%v err=%v", found, err)
		}
	}
	fd.Rearm(storage.FaultPlan{Op: storage.FaultRead, After: 1, Mode: storage.FaultFail, OnFault: func() {
		if err := e.pool.EvictAll(); err != nil {
			t.Errorf("EvictAll while kv2 faults: %v", err)
		}
		fd.Rearm(storage.FaultPlan{Op: storage.FaultRead, After: 1, Mode: storage.FaultFail})
	}})
	tx := e.Begin()
	if _, err := tx.Apply(tb, new(Batch).Insert(kvRow(4, 40))); err != nil {
		t.Fatalf("Apply kv: %v", err)
	}
	if _, err := tx.Apply(tb2, new(Batch).Insert(kvRow(9, 90))); err != nil {
		t.Fatalf("Apply kv2: %v", err)
	}
	err = tx.Commit()
	if !fd.Fired() {
		t.Fatalf("Commit = %v; the rollback never read kv's leaf", err)
	}
	if !errors.Is(err, storage.ErrInjected) || !errors.Is(err, buffer.ErrPoolClosed) {
		t.Fatalf("Commit = %v, want the injected read fault and buffer.ErrPoolClosed", err)
	}
	if _, err := tb.Insert(kvRow(5, 50)); !errors.Is(err, buffer.ErrPoolClosed) {
		t.Errorf("Insert after the stop = %v, want buffer.ErrPoolClosed", err)
	}
}

func TestTxnGCRespectsLiveSnapshot(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)
	ix := tb.indexes["by_k"]

	tx := e.Begin()
	var b Batch
	b.Insert(kvRow(1, 10))
	if _, err := tx.Apply(tb, &b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	snap := e.Begin() // pins version v=10

	rid, _, _ := ix.LookupRID(tuple.Int64(1))
	u := e.Begin()
	var ub Batch
	ub.Update(rid, kvRow(1, 11))
	if _, err := u.Apply(tb, &ub); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := u.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// The dead version is above the snapshot's watermark: GC must not
	// touch it.
	if removed := e.RunGC(); removed != 0 {
		t.Fatalf("RunGC removed %d with live snapshot, want 0", removed)
	}
	if got := readAll(t)(snap.Query(tb, WithIndex("by_k"))); got[1] != 10 {
		t.Fatalf("snapshot = %v, want {1:10}", got)
	}
	snap.Abort()
	if removed := e.RunGC(); removed != 1 {
		t.Fatalf("RunGC removed %d after release, want 1", removed)
	}
	if got := readAll(t)(tb.Query(WithIndex("by_k"))); got[1] != 11 {
		t.Fatalf("latest = %v, want {1:11}", got)
	}
}

// Satellite: duplicate-key attribution inside a txn batch reports the
// op index against the txn's own staged writes, not prior durable
// state.
func TestTxnStagedDuplicateAttribution(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)

	// Same key twice within one batch: ErrIndex must point at the second
	// op (index 1), which collided with op 0 of the SAME batch — durable
	// state knows nothing of this key.
	tx := e.Begin()
	var b Batch
	b.Insert(kvRow(9, 90))
	b.Insert(kvRow(9, 91))
	res, err := tx.Apply(tb, &b)
	if err == nil {
		t.Fatal("duplicate staged key should fail Apply")
	}
	if res.ErrIndex != 1 {
		t.Fatalf("ErrIndex = %d, want 1 (the second op)", res.ErrIndex)
	}
	if !strings.Contains(err.Error(), "op 0 of batch 0") {
		t.Fatalf("error %q should attribute the collision to op 0 of batch 0", err)
	}
	// The failed batch staged nothing: committing applies no rows.
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := readAll(t)(tb.Query()); len(got) != 0 {
		t.Fatalf("rows = %v, want none", got)
	}

	// Across batches of one txn: second batch's op collides with a key
	// staged by batch 0.
	tx2 := e.Begin()
	var b1, b2 Batch
	b1.Insert(kvRow(1, 10))
	b1.Insert(kvRow(2, 20))
	if _, err := tx2.Apply(tb, &b1); err != nil {
		t.Fatalf("Apply b1: %v", err)
	}
	b2.Insert(kvRow(3, 30))
	b2.Insert(kvRow(2, 21))
	res, err = tx2.Apply(tb, &b2)
	if err == nil {
		t.Fatal("cross-batch staged duplicate should fail")
	}
	if res.ErrIndex != 1 {
		t.Fatalf("ErrIndex = %d, want 1", res.ErrIndex)
	}
	if !strings.Contains(err.Error(), "op 1 of batch 0") {
		t.Fatalf("error %q should attribute to op 1 of batch 0", err)
	}
	tx2.Abort()

	// A delete of the old holder inside the txn frees the key for a
	// staged re-insert (no false duplicate), and the commit-time durable
	// check honors the freed set.
	if _, err := tb.Insert(kvRow(42, 1)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	rid, _, _ := tb.indexes["by_k"].LookupRID(tuple.Int64(42))
	tx3 := e.Begin()
	var b3 Batch
	b3.Delete(rid)
	b3.Insert(kvRow(42, 2))
	if _, err := tx3.Apply(tb, &b3); err != nil {
		t.Fatalf("delete+reinsert Apply: %v", err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatalf("delete+reinsert Commit: %v", err)
	}
	if got := readAll(t)(tb.Query(WithIndex("by_k"))); got[42] != 2 {
		t.Fatalf("rows = %v, want {42:2}", got)
	}

	// Commit-time duplicate against durable state is still caught, and
	// names the staged op.
	tx4 := e.Begin()
	var b4 Batch
	b4.Insert(kvRow(42, 3))
	if _, err := tx4.Apply(tb, &b4); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := tx4.Commit(); err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("Commit = %v, want durable duplicate-key error", err)
	}
}

// Regression: a commit that fails after some effects landed must roll
// every one of them back — earlier tables' new versions must not stay
// visible to latest readers, staged targets must not stay marked dead,
// unique entries must point back at the surviving version, and the
// never-published timestamp must be reusable without conflating the
// failed commit's leftovers with the next successful one. The failure
// is injected at every landing step in turn: mid-way through a table's
// heap run (some records placed, some not), between its heap stage and
// its index run, and in the second table after the first landed whole.
func TestTxnCommitRollbackOnMidCommitFailure(t *testing.T) {
	// kv lands 2 records (the update's new version, the insert) and one
	// index run, kv2 one record and one index run.
	const steps = 5
	for n := 1; n <= steps+1; n++ {
		t.Run(fmt.Sprintf("step%d", n), func(t *testing.T) { testCommitFailureAt(t, n, n <= steps) })
	}
}

func testCommitFailureAt(t *testing.T, n int, wantFail bool) {
	e := newTestEngine(t)
	tb := kvTable(t, e)
	tb2, err := e.CreateTable("kv2", kvSchema())
	if err != nil {
		t.Fatalf("CreateTable kv2: %v", err)
	}
	if _, err := tb2.CreateIndex("by_k2", []string{"k"}); err != nil {
		t.Fatalf("CreateIndex kv2: %v", err)
	}
	ix := tb.indexes["by_k"]

	for k, v := range map[int64]int64{1: 10, 2: 20, 3: 30} {
		if _, err := tb.Insert(kvRow(k, v)); err != nil {
			t.Fatalf("seed Insert: %v", err)
		}
	}
	snap := e.Begin() // must keep reading the seed state throughout
	defer snap.Abort()
	clockBefore := e.Clock()
	deadBefore := e.deadVersions.Load()

	rid1, _, err := ix.LookupRID(tuple.Int64(1))
	if err != nil {
		t.Fatalf("LookupRID 1: %v", err)
	}
	rid2, _, err := ix.LookupRID(tuple.Int64(2))
	if err != nil {
		t.Fatalf("LookupRID 2: %v", err)
	}
	commit := func() error {
		tx := e.Begin()
		var ba, bb Batch
		ba.Update(rid1, kvRow(1, 11)) // unique entry upsert (key unchanged)
		ba.Delete(rid2)
		ba.Insert(kvRow(4, 40)) // fresh unique entry
		if _, err := tx.Apply(tb, &ba); err != nil {
			t.Fatalf("Apply kv: %v", err)
		}
		bb.Insert(kvRow(9, 90))
		if _, err := tx.Apply(tb2, &bb); err != nil {
			t.Fatalf("Apply kv2: %v", err)
		}
		return tx.Commit()
	}

	TestingFailCommitAfter(n)
	defer TestingFailCommitAfter(0)
	err = commit()
	if !wantFail {
		// One step past the last: the injection never fires, which pins
		// the step count the loop above relies on.
		if err != nil {
			t.Fatalf("Commit with the failure armed past the last step = %v", err)
		}
		return
	}
	if !errors.Is(err, errInjectedCommitFailure) {
		t.Fatalf("Commit = %v, want injected failure", err)
	}

	if got := readAll(t)(tb.Query()); len(got) != 3 || got[1] != 10 || got[2] != 20 || got[3] != 30 {
		t.Fatalf("latest heap read after failed commit = %v, want seed state", got)
	}
	if got := readAll(t)(tb.Query(WithIndex("by_k"))); len(got) != 3 || got[1] != 10 {
		t.Fatalf("latest index read after failed commit = %v, want seed state", got)
	}
	if _, found, err := ix.LookupRID(tuple.Int64(4)); err != nil || found {
		t.Fatalf("k=4 lookup after failed commit: found=%v err=%v, want absent", found, err)
	}
	if got := readAll(t)(tb2.Query()); len(got) != 0 {
		t.Fatalf("kv2 rows after failed commit = %v, want none", got)
	}
	if tb.Rows() != 3 || tb2.Rows() != 0 {
		t.Fatalf("Rows() = %d/%d after failed commit, want 3/0", tb.Rows(), tb2.Rows())
	}
	if got := e.Clock(); got != clockBefore {
		t.Fatalf("clock = %d after failed commit, want unchanged %d", got, clockBefore)
	}
	if got := e.deadVersions.Load(); got != deadBefore {
		t.Fatalf("deadVersions = %d after failed commit, want %d", got, deadBefore)
	}
	for _, tbl := range []*Table{tb, tb2} {
		for name, ix := range tbl.indexes {
			if err := ix.Tree().CheckIntegrity(); err != nil {
				t.Fatalf("CheckIntegrity %s after failed commit: %v", name, err)
			}
		}
	}

	// The reused timestamp must carry only the retry's versions: the same
	// logical changes committed now must be fully visible, and the old
	// snapshot must still see the seed state.
	if err := commit(); err != nil {
		t.Fatalf("retry Commit: %v", err)
	}
	got := readAll(t)(tb.Query(WithIndex("by_k")))
	if len(got) != 3 || got[1] != 11 || got[3] != 30 || got[4] != 40 {
		t.Fatalf("latest after retry = %v, want {1:11 3:30 4:40}", got)
	}
	if got := readAll(t)(tb2.Query()); len(got) != 1 || got[9] != 90 {
		t.Fatalf("kv2 after retry = %v, want {9:90}", got)
	}
	if got := readAll(t)(snap.Query(tb, WithIndex("by_k"))); len(got) != 3 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("snapshot after retry = %v, want seed state", got)
	}
	snap.Abort()
	e.RunGC() // must not trip over the rollback's tombstones
	if got := readAll(t)(tb.Query(WithIndex("by_k"))); len(got) != 3 || got[1] != 11 {
		t.Fatalf("latest after GC = %v, want {1:11 3:30 4:40}", got)
	}
}

// A unique claim whose pre-check verdict a concurrent raw Apply
// invalidates must fail the commit, not clobber the raw row's entry.
// The interleaving is forced with the engine's own locks: the raw
// insert takes its stamp and parks on the commit gate; the commit runs
// its pre-check (key absent) and parks there too; released together,
// the raw insert lands while the commit is held at its first table's
// mutex, so the claim in its second table finds an occupant the
// pre-check never saw. (Should the commit be scheduled so late that its
// pre-check runs after the raw insert, it fails there instead — the
// assertions hold either way.)
func TestTxnClaimCollidingWithRawInsert(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)
	first, err := e.CreateTable("first", kvSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := first.CreateIndex("by_k1", []string{"k"}); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	tx := e.Begin()
	var b1, b2 Batch
	b1.Insert(kvRow(1, 1))
	if _, err := tx.Apply(first, &b1); err != nil {
		t.Fatalf("Apply first: %v", err)
	}
	b2.Insert(kvRow(7, 1))
	if _, err := tx.Apply(tb, &b2); err != nil {
		t.Fatalf("Apply kv: %v", err)
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	e.commitGate.Lock()
	first.mu.Lock()
	clock := e.Clock()
	rawErr, txErr := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := tb.Insert(kvRow(7, 2))
		rawErr <- err
	}()
	waitFor("the raw insert's stamp", func() bool { return e.Clock() > clock })
	go func() { txErr <- tx.Commit() }()
	waitFor("the commit to take txnMu", func() bool {
		if e.txnMu.TryLock() {
			e.txnMu.Unlock()
			return false
		}
		return true
	})
	time.Sleep(5 * time.Millisecond) // pre-check done, parked on the gate
	e.commitGate.Unlock()
	if err := <-rawErr; err != nil {
		t.Fatalf("raw insert: %v", err)
	}
	first.mu.Unlock()
	if err := <-txErr; err == nil || !strings.Contains(err.Error(), "duplicate key") {
		t.Fatalf("Commit = %v, want a duplicate-key error", err)
	}

	if got := readAll(t)(tb.Query(WithIndex("by_k"))); len(got) != 1 || got[7] != 2 {
		t.Fatalf("kv index read = %v, want the raw row {7:2}", got)
	}
	if got := readAll(t)(tb.Query()); len(got) != 1 || got[7] != 2 {
		t.Fatalf("kv heap read = %v, want the raw row {7:2}", got)
	}
	if got := readAll(t)(first.Query()); len(got) != 0 {
		t.Fatalf("first table after failed commit = %v, want none", got)
	}
	if tb.Rows() != 1 || first.Rows() != 0 || e.deadVersions.Load() != 0 {
		t.Fatalf("Rows() = %d/%d, deadVersions = %d after failed commit, want 1/0, 0",
			tb.Rows(), first.Rows(), e.deadVersions.Load())
	}
	for _, ix := range []*Index{tb.indexes["by_k"], first.indexes["by_k1"]} {
		if err := ix.Tree().CheckIntegrity(); err != nil {
			t.Fatalf("CheckIntegrity %s: %v", ix.name, err)
		}
	}
}

func TestTxnUseAfterFinish(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)
	tx := e.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatalf("empty Commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second Commit = %v, want ErrTxnDone", err)
	}
	var b Batch
	b.Insert(kvRow(1, 1))
	if _, err := tx.Apply(tb, &b); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Apply after Commit = %v, want ErrTxnDone", err)
	}
	if _, err := tx.Query(tb); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("Query after Commit = %v, want ErrTxnDone", err)
	}
	tx.Abort() // idempotent no-op
}

func TestTxnWALRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db")
	e, err := NewEngine(Options{Path: path, WAL: true})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	tb, err := e.CreateTable("kv", kvSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tb.CreateIndex("by_k", []string{"k"}); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	tx := e.Begin()
	var b Batch
	for i := 0; i < 20; i++ {
		b.Insert(kvRow(int64(i), int64(i*2)))
	}
	if _, err := tx.Apply(tb, &b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Update a few and delete a few in a second txn.
	ix := tb.indexes["by_k"]
	tx2 := e.Begin()
	var b2 Batch
	for i := 0; i < 6; i++ {
		rid, _, err := ix.LookupRID(tuple.Int64(int64(i)))
		if err != nil {
			t.Fatalf("LookupRID: %v", err)
		}
		if i < 3 {
			b2.Update(rid, kvRow(int64(i), int64(i+500)))
		} else {
			b2.Delete(rid)
		}
	}
	if _, err := tx2.Apply(tb, &b2); err != nil {
		t.Fatalf("Apply 2: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatalf("Commit 2: %v", err)
	}
	clock := e.Clock()
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e2, err := NewEngine(Options{Path: path, WAL: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	if got := e2.Clock(); got < clock {
		t.Fatalf("clock after reopen = %d, want >= %d", got, clock)
	}
	tb2, err := e2.Table("kv")
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	got := readAll(t)(tb2.Query(WithIndex("by_k")))
	if len(got) != 17 {
		t.Fatalf("%d rows after recovery, want 17", len(got))
	}
	for i := int64(0); i < 3; i++ {
		if got[i] != i+500 {
			t.Fatalf("k=%d → %d, want %d", i, got[i], i+500)
		}
	}
	for i := int64(3); i < 6; i++ {
		if _, ok := got[i]; ok {
			t.Fatalf("deleted k=%d resurrected after recovery", i)
		}
	}
	if tb2.Rows() != 17 {
		t.Fatalf("Rows() = %d, want 17", tb2.Rows())
	}
	// New transactions allocate fresh timestamps past the recovered clock.
	tx3 := e2.Begin()
	var b3 Batch
	b3.Insert(kvRow(100, 100))
	if _, err := tx3.Apply(tb2, &b3); err != nil {
		t.Fatalf("post-recovery Apply: %v", err)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatalf("post-recovery Commit: %v", err)
	}
	if e2.Clock() <= clock {
		t.Fatalf("clock did not advance past recovered value")
	}
}
