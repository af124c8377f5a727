package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// fixedSchema is all fixed-width kinds, so every encoded row has the
// same size and in-place updates never relocate — the storm tests rely
// on RIDs staying put.
func fixedSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "a", Kind: tuple.KindInt64},
		tuple.Field{Name: "b", Kind: tuple.KindInt32},
	)
}

// fixedRow builds a row whose fields satisfy checkInvariant.
func fixedRow(id, a int64) tuple.Row {
	return tuple.Row{
		tuple.Int64(id),
		tuple.Int64(a),
		tuple.Int32(int32((id + a) % 9973)),
	}
}

// checkInvariant reports whether a (possibly projected id,a,b) row is
// internally consistent — i.e. was written by fixedRow in one piece.
func checkInvariant(row tuple.Row) bool {
	if len(row) != 3 {
		return false
	}
	return row[2].Int == (row[0].Int+row[1].Int)%9973
}

func newBatchFixture(t *testing.T, cached bool) (*Table, *Index) {
	t.Helper()
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 4096})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	tb, err := e.CreateTable("t", fixedSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	var opts []IndexOption
	if cached {
		opts = append(opts, WithCache("a", "b"))
	}
	ix, err := tb.CreateIndex("by_id", []string{"id"}, opts...)
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	return tb, ix
}

func TestApplyBasics(t *testing.T) {
	tb, ix := newBatchFixture(t, false)
	var b Batch
	for i := 0; i < 500; i++ {
		b.Insert(fixedRow(int64(i), int64(i*7)))
	}
	res, err := tb.Apply(&b, WithResultRIDs())
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Applied != 500 || res.ErrIndex != -1 || len(res.RIDs) != 500 {
		t.Fatalf("Result = %+v", res)
	}
	if tb.Rows() != 500 {
		t.Errorf("Rows = %d, want 500", tb.Rows())
	}
	for i, rid := range res.RIDs {
		row, err := tb.Get(rid)
		if err != nil {
			t.Fatalf("Get op %d: %v", i, err)
		}
		if row[0].Int != int64(i) {
			t.Fatalf("op %d RID points at id %d", i, row[0].Int)
		}
	}
	// Update a stripe and delete another in one batch.
	b.Reset()
	for i := 0; i < 500; i++ {
		switch i % 5 {
		case 0:
			b.Update(res.RIDs[i], fixedRow(int64(i), int64(i*7+1)))
		case 1:
			b.Delete(res.RIDs[i])
		}
	}
	res2, err := tb.Apply(&b, WithResultRIDs())
	if err != nil {
		t.Fatalf("Apply 2: %v", err)
	}
	if res2.Applied != b.Len() {
		t.Fatalf("Applied = %d, want %d", res2.Applied, b.Len())
	}
	if want := int64(500 - 100); tb.Rows() != want {
		t.Errorf("Rows = %d, want %d", tb.Rows(), want)
	}
	for i := 0; i < 500; i++ {
		row, lres, err := ix.Lookup(nil, tuple.Int64(int64(i)))
		if err != nil {
			t.Fatalf("Lookup %d: %v", i, err)
		}
		switch i % 5 {
		case 0:
			if !lres.Found || row[1].Int != int64(i*7+1) {
				t.Fatalf("updated id %d: found=%v a=%v", i, lres.Found, row)
			}
		case 1:
			if lres.Found {
				t.Fatalf("deleted id %d still indexed", i)
			}
		default:
			if !lres.Found || row[1].Int != int64(i*7) {
				t.Fatalf("untouched id %d: found=%v", i, lres.Found)
			}
		}
	}
	if tr := ix.Tree(); tr.Len() != 400 {
		t.Errorf("index Len = %d, want 400", tr.Len())
	}
	// Update ops report the row's (here unchanged) RID.
	for i := 0; i < b.Len(); i++ {
		if op := b.Op(i); op.Kind == BatchUpdate && res2.RIDs[i] != op.RID {
			t.Errorf("update op %d relocated a fixed-width row: %v → %v", i, op.RID, res2.RIDs[i])
		}
	}
}

// opErr is op i's verdict in res: OpErrs is empty while every op
// applies.
func opErr(res Result, i int) error {
	if len(res.OpErrs) == 0 {
		return nil
	}
	return res.OpErrs[i]
}

// TestApplyFailedOpFailsAlone: an op that fails pre-flight fails alone.
// The ops on either side of it apply, and Apply returns its error.
func TestApplyFailedOpFailsAlone(t *testing.T) {
	tb, ix := newBatchFixture(t, false)
	var b Batch
	b.Insert(fixedRow(1, 10))
	b.Insert(fixedRow(2, 20))
	// A kind-mismatched row fails pre-flight encoding.
	b.Insert(tuple.Row{tuple.Int32(3), tuple.Int64(0), tuple.Int32(0)})
	b.Insert(fixedRow(4, 40))
	res, err := tb.Apply(&b, WithResultRIDs())
	if err == nil || err != opErr(res, 2) {
		t.Fatalf("Apply = %v, want op 2's error (OpErrs %v)", err, res.OpErrs)
	}
	if res.ErrIndex != 2 {
		t.Errorf("ErrIndex = %d, want 2", res.ErrIndex)
	}
	if res.Applied != 3 {
		t.Errorf("Applied = %d, want 3", res.Applied)
	}
	if tb.Rows() != 3 {
		t.Errorf("Rows = %d, want 3", tb.Rows())
	}
	for _, id := range []int64{1, 2, 4} {
		if _, lres, err := ix.Lookup(nil, tuple.Int64(id)); err != nil || !lres.Found {
			t.Errorf("id %d: found=%v err=%v", id, lres.Found, err)
		}
	}
	if res.RIDs[2].Valid() || !res.RIDs[3].Valid() {
		t.Errorf("RIDs = %v, want none for the failed op only", res.RIDs)
	}
	// A delete of a dead RID fails pre-flight too.
	b.Reset()
	b.Delete(storage.RID{Page: 9999, Slot: 0})
	if _, err := tb.Apply(&b); err == nil {
		t.Error("delete of a bogus RID succeeded")
	}
}

// TestApplyErrorStillReportsHeapRIDs pins the contract a caller
// redirecting old RIDs depends on: when a later stage fails the batch,
// the RIDs of ops whose heap writes already landed are still reported.
func TestApplyErrorStillReportsHeapRIDs(t *testing.T) {
	tb, _ := newBatchFixture(t, false)
	if _, err := tb.Insert(fixedRow(7, 70)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	var b Batch
	b.Insert(fixedRow(50, 0))
	b.Insert(fixedRow(7, 71)) // duplicate key: fails in the index stage
	res, err := tb.Apply(&b, WithResultRIDs())
	if err == nil {
		t.Fatal("duplicate not reported")
	}
	if !res.RIDs[0].Valid() {
		t.Error("op 0 reached the heap but its RID was not reported")
	}
	if row, gerr := tb.Get(res.RIDs[0]); gerr != nil || row[0].Int != 50 {
		t.Errorf("reported RID does not hold op 0's row: %v %v", row, gerr)
	}
}

func TestApplyDuplicateKeyAttribution(t *testing.T) {
	tb, _ := newBatchFixture(t, false)
	if _, err := tb.Insert(fixedRow(7, 70)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	var b Batch
	b.Insert(fixedRow(100, 0))
	b.Insert(fixedRow(7, 71)) // collides with the preloaded key
	b.Insert(fixedRow(101, 0))
	res, err := tb.Apply(&b)
	if err == nil {
		t.Fatal("duplicate key not reported")
	}
	if res.ErrIndex != 1 {
		t.Errorf("ErrIndex = %d, want 1", res.ErrIndex)
	}
}

// TestApplyStormVsCacheFirstScan is the batch-vs-readers atomicity
// test: an 8-goroutine Apply storm (batched inserts of disjoint
// ascending stripes + batched updates) runs while CacheFirst
// cursors scan the cached index mid-storm. Per-op atomicity means a
// scan never observes a half-applied row: every projected row must
// satisfy the fixedRow invariant — whether it was assembled from the
// index cache or fetched from the heap — keys must ascend, and the
// cursor must never error (no index entry may dangle into a freed heap
// slot). Run under -race in CI.
func TestApplyStormVsCacheFirstScan(t *testing.T) {
	tb, ix := newBatchFixture(t, true)
	const (
		preload   = 2000
		inserters = 4
		updaters  = 4
		batchSize = 64
		batches   = 25
	)
	preRIDs := make([]storage.RID, preload)
	{
		var b Batch
		for i := 0; i < preload; i++ {
			b.Insert(fixedRow(int64(i), int64(i)))
		}
		res, err := tb.Apply(&b, WithResultRIDs())
		if err != nil {
			t.Fatalf("preload: %v", err)
		}
		copy(preRIDs, res.RIDs)
	}
	if _, err := ix.WarmCache(); err != nil {
		t.Fatalf("WarmCache: %v", err)
	}

	var writersWG, scannerWG sync.WaitGroup
	errCh := make(chan error, inserters+updaters+1)
	var stop atomic.Bool
	for w := 0; w < inserters; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			var b Batch
			for bn := 0; bn < batches; bn++ {
				b.Reset()
				base := preload + (w*batches+bn)*batchSize
				for i := 0; i < batchSize; i++ {
					id := int64(base + i)
					b.Insert(fixedRow(id, id*3))
				}
				if _, err := tb.Apply(&b); err != nil {
					errCh <- fmt.Errorf("inserter %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < updaters; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			var b Batch
			for bn := 0; bn < batches; bn++ {
				b.Reset()
				for i := 0; i < batchSize; i++ {
					// Disjoint update targets per worker (stride), fresh
					// consistent contents per round.
					slot := (w + (bn*batchSize+i)*updaters) % preload
					id := int64(slot)
					b.Update(preRIDs[slot], fixedRow(id, id+int64(bn)*1000))
				}
				res, err := tb.Apply(&b, WithResultRIDs())
				if err != nil {
					errCh <- fmt.Errorf("updater %d: %w", w, err)
					return
				}
				// A value outside the table's profiled domain grows its
				// record, which may then move: follow it.
				for i, rid := range res.RIDs {
					preRIDs[(w+(bn*batchSize+i)*updaters)%preload] = rid
				}
			}
		}(w)
	}
	scannerWG.Add(1)
	go func() {
		defer scannerWG.Done()
		for !stop.Load() {
			cur, err := tb.Query(
				WithIndex("by_id"),
				WithProjection("id", "a", "b"),
				WithCachePolicy(CacheFirst),
			)
			if err != nil {
				errCh <- err
				return
			}
			prev := int64(-1)
			for cur.Next() {
				row := cur.Row()
				if !checkInvariant(row) {
					errCh <- fmt.Errorf("half-applied row observed: %v", row.Clone())
					cur.Close()
					return
				}
				if row[0].Int <= prev {
					errCh <- fmt.Errorf("keys out of order: %d after %d", row[0].Int, prev)
					cur.Close()
					return
				}
				prev = row[0].Int
			}
			if err := cur.Close(); err != nil {
				errCh <- fmt.Errorf("mid-storm cursor error: %w", err)
				return
			}
		}
	}()

	writersWG.Wait()
	stop.Store(true)
	scannerWG.Wait()
	close(errCh)
	wantRows := int64(preload + inserters*batches*batchSize)
	for err := range errCh {
		t.Fatal(err)
	}
	if tb.Rows() != wantRows {
		t.Errorf("Rows = %d, want %d", tb.Rows(), wantRows)
	}
	// Post-storm: a full scan with stats must see every row, consistent.
	cur, err := tb.Query(WithIndex("by_id"), WithProjection("id", "a", "b"))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	rows := 0
	for cur.Next() {
		if !checkInvariant(cur.Row()) {
			t.Fatalf("inconsistent row after storm: %v", cur.Row())
		}
		rows++
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	if int64(rows) != wantRows {
		t.Errorf("scan saw %d rows, want %d", rows, wantRows)
	}
}

// TestApplyErrorIsolation covers the coalescer's contract: a bad op
// fails alone — pre-flight failures, duplicate keys, and dead-RID
// deletes never take neighbors down.
func TestApplyErrorIsolation(t *testing.T) {
	tb, ix := newBatchFixture(t, false)
	if _, err := tb.Insert(fixedRow(7, 70)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	var b Batch
	b.Insert(fixedRow(1, 10))
	// Kind-mismatched row: fails pre-flight encoding.
	b.Insert(tuple.Row{tuple.Int32(2), tuple.Int64(0), tuple.Int32(0)})
	b.Insert(fixedRow(3, 30))
	b.Insert(fixedRow(7, 71)) // duplicate key: fails in the index stage
	b.Delete(storage.RID{Page: 9999, Slot: 0})
	b.Insert(fixedRow(4, 40))
	res, err := tb.Apply(&b, WithResultRIDs())
	if err == nil || err != res.Err || err != opErr(res, 1) {
		t.Fatalf("Apply = %v (Result.Err %v), want the lowest failed op's error", err, res.Err)
	}
	if res.Applied != 3 {
		t.Errorf("Applied = %d, want 3", res.Applied)
	}
	if res.ErrIndex != 1 {
		t.Errorf("ErrIndex = %d, want 1 (lowest failed op)", res.ErrIndex)
	}
	wantFail := map[int]bool{1: true, 3: true, 4: true}
	for i := 0; i < b.Len(); i++ {
		if got := res.OpErrs[i] != nil; got != wantFail[i] {
			t.Errorf("op %d: err = %v, want failed=%v", i, res.OpErrs[i], wantFail[i])
		}
	}
	// Every op around the failures applied end to end.
	for _, id := range []int64{1, 3, 4} {
		if _, lres, err := ix.Lookup(nil, tuple.Int64(id)); err != nil || !lres.Found {
			t.Errorf("isolated neighbor id %d: found=%v err=%v", id, lres.Found, err)
		}
	}
	// The duplicate's heap write landed before detection, and was taken
	// back: the op reports no RID and the table counts no row for it.
	if res.RIDs[3].Valid() {
		t.Errorf("the failed duplicate reports RID %v", res.RIDs[3])
	}
	if tb.Rows() != 4 {
		t.Errorf("Rows = %d, want 4", tb.Rows())
	}
}

// TestApplyErrorIsolationIntraBatchDuplicate: two inserts of the same
// unique key inside one isolated batch — exactly one wins, the loser
// is attributed, neighbors apply.
func TestApplyErrorIsolationIntraBatchDuplicate(t *testing.T) {
	tb, ix := newBatchFixture(t, false)
	var b Batch
	b.Insert(fixedRow(10, 1))
	b.Insert(fixedRow(50, 1))
	b.Insert(fixedRow(50, 2))
	b.Insert(fixedRow(11, 1))
	res, err := tb.Apply(&b)
	if err == nil {
		t.Fatal("Apply reported no error for the losing duplicate")
	}
	if res.Applied != 3 {
		t.Errorf("Applied = %d, want 3", res.Applied)
	}
	dupFails := 0
	for _, i := range []int{1, 2} {
		if res.OpErrs[i] != nil {
			dupFails++
		}
	}
	if dupFails != 1 {
		t.Errorf("%d of the colliding inserts failed, want exactly 1", dupFails)
	}
	if res.OpErrs[0] != nil || res.OpErrs[3] != nil {
		t.Errorf("neighbors failed: %v %v", res.OpErrs[0], res.OpErrs[3])
	}
	for _, id := range []int64{10, 11, 50} {
		if _, lres, err := ix.Lookup(nil, tuple.Int64(id)); err != nil || !lres.Found {
			t.Errorf("id %d: found=%v err=%v", id, lres.Found, err)
		}
	}
}

// TestApplyIsolationMixedOps exercises updates and deletes through the
// isolated grouped pipeline: a dead update target fails alone while
// surrounding updates and deletes of live rows apply.
func TestApplyIsolationMixedOps(t *testing.T) {
	tb, ix := newBatchFixture(t, false)
	var seed Batch
	for i := 0; i < 8; i++ {
		seed.Insert(fixedRow(int64(i), int64(i)))
	}
	sres, err := tb.Apply(&seed, WithResultRIDs())
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	var b Batch
	b.Update(sres.RIDs[0], fixedRow(0, 100))
	b.Update(storage.RID{Page: 9999, Slot: 3}, fixedRow(1, 101)) // dead target
	b.Delete(sres.RIDs[2])
	b.Update(sres.RIDs[3], fixedRow(3, 103))
	res, err := tb.Apply(&b)
	if err == nil || err != opErr(res, 1) {
		t.Fatalf("Apply = %v, want op 1's error", err)
	}
	if res.Applied != 3 || res.OpErrs[1] == nil {
		t.Fatalf("Result = %+v", res)
	}
	if tb.Rows() != 7 {
		t.Errorf("Rows = %d, want 7", tb.Rows())
	}
	if row, lres, err := ix.Lookup(nil, tuple.Int64(0)); err != nil || !lres.Found || row[1].Int != 100 {
		t.Errorf("updated row 0: %v %v %v", row, lres, err)
	}
	if row, lres, err := ix.Lookup(nil, tuple.Int64(3)); err != nil || !lres.Found || row[1].Int != 103 {
		t.Errorf("updated row 3: %v %v %v", row, lres, err)
	}
	if _, lres, _ := ix.Lookup(nil, tuple.Int64(2)); lres.Found {
		t.Error("deleted row 2 still indexed")
	}
}

// indexContents dumps id → a through the by_id index.
func indexContents(t *testing.T, tb *Table) map[int64]int64 {
	t.Helper()
	cur, err := tb.Query(WithIndex("by_id"), WithCachePolicy(HeapOnly))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	out := make(map[int64]int64)
	for cur.Next() {
		out[cur.Row()[0].Int] = cur.Row()[1].Int
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	return out
}

// TestApplySameKeyOrder pins the Batch ordering guarantee: one Apply
// leaves the index exactly as its delete ops followed by its inserts and
// updates in batch order would, applied one batch each. Every case puts
// two entries for one key into the same index run — enough pairs (the
// run is well past sort.Sort's stable insertion-sort cutoff) that an
// order taken from the key alone scrambles some of them.
func TestApplySameKeyOrder(t *testing.T) {
	const n = 64
	cases := []struct {
		name  string
		build func(b *Batch, rids []storage.RID)
	}{
		{"move off K then insert K", func(b *Batch, rids []storage.RID) {
			for i := 0; i < n; i++ {
				b.Update(rids[i], fixedRow(int64(1000+i), 1))
				b.Insert(fixedRow(int64(i), 2))
			}
		}},
		{"insert K before the move frees it", func(b *Batch, rids []storage.RID) {
			for i := 0; i < n; i++ {
				b.Insert(fixedRow(int64(i), 2)) // duplicate: K is still held
				b.Update(rids[i], fixedRow(int64(1000+i), 1))
			}
		}},
		{"move into the key the previous op freed", func(b *Batch, rids []storage.RID) {
			for i := n - 1; i >= 0; i-- {
				b.Update(rids[i], fixedRow(int64(i+1), 1))
			}
		}},
		{"delete then insert K", func(b *Batch, rids []storage.RID) {
			for i := 0; i < n; i++ {
				b.Delete(rids[i])
				b.Insert(fixedRow(int64(i), 2))
			}
		}},
		// The one intra-batch dependency batch order does NOT decide:
		// deletes land first wherever they sit, so an insert may claim a
		// key that a later delete in the same batch frees — applied one
		// batch each in batch order, the insert would be a duplicate.
		{"insert K then delete its holder", func(b *Batch, rids []storage.RID) {
			for i := 0; i < n; i++ {
				b.Insert(fixedRow(int64(i), 2))
				b.Delete(rids[i])
			}
		}},
	}
	seed := func(t *testing.T) (*Table, []storage.RID) {
		tb, _ := newBatchFixture(t, false)
		var b Batch
		for i := 0; i < n; i++ {
			b.Insert(fixedRow(int64(i), 0))
		}
		res, err := tb.Apply(&b, WithResultRIDs())
		if err != nil {
			t.Fatalf("seed: %v", err)
		}
		return tb, res.RIDs
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb, rids := seed(t)
			var b Batch
			tc.build(&b, rids)
			res, _ := tb.Apply(&b)

			ref, refRIDs := seed(t)
			var all Batch
			tc.build(&all, refRIDs)
			refErrs := make([]error, all.Len())
			for _, deletes := range []bool{true, false} {
				for i := range all.ops {
					if (all.ops[i].kind == BatchDelete) != deletes {
						continue
					}
					one := Batch{ops: all.ops[i : i+1]}
					_, refErrs[i] = ref.Apply(&one)
				}
			}

			for i := range refErrs {
				if (opErr(res, i) == nil) != (refErrs[i] == nil) {
					t.Errorf("op %d: batch err = %v, one-per-batch err = %v", i, opErr(res, i), refErrs[i])
				}
			}
			got, want := indexContents(t, tb), indexContents(t, ref)
			if len(got) != len(want) {
				t.Errorf("index holds %d keys, one-per-batch holds %d", len(got), len(want))
			}
			for id, a := range want {
				if ga, ok := got[id]; !ok || ga != a {
					t.Errorf("id %d: batch a=%d present=%v, one-per-batch a=%d", id, ga, ok, a)
				}
			}
			if err := tb.indexes["by_id"].Tree().CheckIntegrity(); err != nil {
				t.Errorf("CheckIntegrity: %v", err)
			}
		})
	}
}
