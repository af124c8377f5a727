package server_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/tuple"
)

// collectIDs drains a Rows stream into the set of id column values.
func collectIDs(t *testing.T, rows *client.Rows) map[int64]string {
	t.Helper()
	got := map[int64]string{}
	for rows.Next() {
		r := rows.Row()
		got[r[0].Int] = r[1].Str
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows: %v", err)
	}
	rows.Close()
	return got
}

func TestTxnOverWire(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	setupKV(t, cl)

	txn, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// Stage across two Apply calls: atomicity must span both.
	var b1, b2 client.Batch
	b1.Insert(kvRow(1, "one")).Insert(kvRow(2, "two"))
	b2.Insert(kvRow(3, "three"))
	if res, err := txn.Apply("kv", &b1); err != nil || res.Applied != 2 {
		t.Fatalf("txn Apply 1: applied=%d err=%v", res.Applied, err)
	}
	if res, err := txn.Apply("kv", &b2); err != nil || res.Applied != 1 {
		t.Fatalf("txn Apply 2: applied=%d err=%v", res.Applied, err)
	}

	// Staged writes are invisible even to the transaction's own cursors
	// (snapshot isolation without read-your-own-writes)...
	rows, err := txn.Query("kv", client.WithIndex("by_id"))
	if err != nil {
		t.Fatalf("txn Query: %v", err)
	}
	if got := collectIDs(t, rows); len(got) != 0 {
		t.Fatalf("txn cursor saw staged rows before commit: %v", got)
	}
	// ...and nothing is visible outside before commit either.
	out, err := cl.Query("kv", client.WithIndex("by_id"))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got := collectIDs(t, out); len(got) != 0 {
		t.Fatalf("uncommitted rows leaked to latest reads: %v", got)
	}

	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	out, err = cl.Query("kv", client.WithIndex("by_id"))
	if err != nil {
		t.Fatalf("Query after commit: %v", err)
	}
	if got := collectIDs(t, out); len(got) != 3 {
		t.Fatalf("committed rows = %v, want 3", got)
	}

	// Finished transactions reject further use.
	if _, err := txn.Apply("kv", &b1); err == nil {
		t.Fatalf("Apply on finished txn succeeded")
	}
}

// TestTxnFinishWaitsForStreamingCursor pins the server-side cursor
// accounting: a TTxnAbort (or commit) racing an in-flight snapshot
// Query on the same transaction must wait for the stream to drain
// before releasing the snapshot. Without the wait, a concurrent GC
// pass can unlink versions the cursor still has to visit and the scan
// silently drops rows — so every stream that opened successfully must
// deliver the complete Begin snapshot, abort notwithstanding.
func TestTxnFinishWaitsForStreamingCursor(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	setupKV(t, cl)

	const nKeys = 200
	var seed client.Batch
	for i := 0; i < nKeys; i++ {
		seed.Insert(kvRow(int64(i), "v0"))
	}
	if _, err := cl.Apply("kv", &seed); err != nil {
		t.Fatalf("seed: %v", err)
	}

	// GC hammer: the moment a snapshot releases, its versions are
	// collectible — exactly what the finish-wait must hold off until the
	// cursor drains.
	var stopGC atomic.Bool
	var gcWG sync.WaitGroup
	gcWG.Add(1)
	go func() {
		defer gcWG.Done()
		for !stopGC.Load() {
			f.eng.RunGC()
		}
	}()
	defer func() { stopGC.Store(true); gcWG.Wait() }()

	prev := "v0"
	for round := 0; round < 15; round++ {
		// Collect the current version of every row.
		rows, err := cl.Query("kv", client.WithIndex("by_id"), client.WithRIDs())
		if err != nil {
			t.Fatalf("rid query: %v", err)
		}
		rids := make(map[int64]uint64, nKeys)
		for rows.Next() {
			rids[rows.Row()[0].Int] = rows.RID()
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("rid rows: %v", err)
		}
		rows.Close()
		if len(rids) != nKeys {
			t.Fatalf("round %d: %d rids, want %d", round, len(rids), nKeys)
		}

		victim, err := cl.Begin()
		if err != nil {
			t.Fatalf("Begin victim: %v", err)
		}
		// Supersede every row AFTER the victim's snapshot pinned: the
		// victim is now the only thing keeping the old versions alive.
		writer, err := cl.Begin()
		if err != nil {
			t.Fatalf("Begin writer: %v", err)
		}
		next := fmt.Sprintf("r%d", round)
		var ub client.Batch
		for k, rid := range rids {
			ub.Update(rid, kvRow(k, next))
		}
		if _, err := writer.Apply("kv", &ub); err != nil {
			t.Fatalf("writer Apply: %v", err)
		}
		if err := writer.Commit(); err != nil {
			t.Fatalf("writer Commit: %v", err)
		}

		// Open the victim's stream, then abort immediately — the abort
		// frame chases the query frame down the same pipelined connection;
		// 32-row pages keep the server streaming while the abort arrives.
		stream, err := victim.Query("kv", client.WithIndex("by_id"), client.WithPageSize(32))
		if err != nil {
			t.Fatalf("victim Query: %v", err)
		}
		if err := victim.Abort(); err != nil {
			t.Fatalf("Abort: %v", err)
		}
		got := map[int64]string{}
		for stream.Next() {
			r := stream.Row()
			got[r[0].Int] = r[1].Str
		}
		serr := stream.Err()
		stream.Close()
		if serr != nil {
			// The abort won the race before the cursor opened: a clean,
			// attributed failure is fine. Silent row loss is not.
			prev = next
			continue
		}
		if len(got) != nKeys {
			t.Fatalf("round %d: aborted-mid-stream snapshot returned %d rows, want %d", round, len(got), nKeys)
		}
		for k, v := range got {
			if v != prev {
				t.Fatalf("round %d: key %d = %q, want snapshot value %q", round, k, v, prev)
			}
		}
		prev = next
	}
}

func TestTxnConflictOverWire(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	setupKV(t, cl)

	var seed client.Batch
	seed.Insert(kvRow(1, "base"))
	if _, err := cl.Apply("kv", &seed); err != nil {
		t.Fatalf("seed: %v", err)
	}
	_, found, err := cl.Get("kv", "by_id", tuple.Int64(1))
	if err != nil || !found {
		t.Fatalf("seed lookup: found=%v err=%v", found, err)
	}
	rows, err := cl.Query("kv", client.WithIndex("by_id"), client.WithRIDs())
	if err != nil {
		t.Fatalf("rid query: %v", err)
	}
	var rid uint64
	for rows.Next() {
		rid = rows.RID()
	}
	rows.Close()
	if rid == 0 {
		t.Fatalf("no RID for seeded row")
	}

	// Two snapshots race to update the same row: first committer wins.
	t1, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin t1: %v", err)
	}
	t2, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin t2: %v", err)
	}
	var u1, u2 client.Batch
	u1.Update(rid, kvRow(1, "from-t1"))
	u2.Update(rid, kvRow(1, "from-t2"))
	if _, err := t1.Apply("kv", &u1); err != nil {
		t.Fatalf("t1 stage: %v", err)
	}
	if _, err := t2.Apply("kv", &u2); err != nil {
		t.Fatalf("t2 stage: %v", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatalf("t1 Commit: %v", err)
	}
	if err := t2.Commit(); !errors.Is(err, client.ErrTxnConflict) {
		t.Fatalf("t2 Commit = %v, want ErrTxnConflict", err)
	}
	row, found, err := cl.Get("kv", "by_id", tuple.Int64(1))
	if err != nil || !found {
		t.Fatalf("post-conflict lookup: found=%v err=%v", found, err)
	}
	if got := row[1].Str; got != "from-t1" {
		t.Fatalf("winner's value = %q, want from-t1", got)
	}
}

// TestTxnSnapshotVsCoalescedWrites pins the interplay between snapshot
// transactions and the write coalescer: raw Apply traffic (folded into
// shared cross-connection batches) committed after a transaction began
// must stay invisible to that transaction's cursors, and a snapshot
// begun afterwards must see every coalesced write.
func TestTxnSnapshotVsCoalescedWrites(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	setupKV(t, cl)

	var seed client.Batch
	for i := 0; i < 10; i++ {
		seed.Insert(kvRow(int64(i), "seed"))
	}
	if _, err := cl.Apply("kv", &seed); err != nil {
		t.Fatalf("seed: %v", err)
	}

	txn, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	defer txn.Abort()

	// Concurrent raw writes through the coalescer path, after the
	// snapshot was pinned.
	for w := 0; w < 4; w++ {
		var b client.Batch
		for i := 0; i < 5; i++ {
			b.Insert(kvRow(int64(100+w*10+i), "late"))
		}
		if _, err := cl.Apply("kv", &b); err != nil {
			t.Fatalf("coalesced Apply: %v", err)
		}
	}

	for _, mode := range []struct {
		name string
		opts []client.QueryOption
	}{
		{"heap", nil},
		{"index", []client.QueryOption{client.WithIndex("by_id")}},
		{"parallel", []client.QueryOption{client.WithIndex("by_id"), client.WithParallel(4)}},
	} {
		rows, err := txn.Query("kv", mode.opts...)
		if err != nil {
			t.Fatalf("%s txn query: %v", mode.name, err)
		}
		got := collectIDs(t, rows)
		if len(got) != 10 {
			t.Fatalf("%s: txn snapshot saw %d rows, want the 10 seeds (late coalesced writes leaked)", mode.name, len(got))
		}
		for id, v := range got {
			if v != "seed" {
				t.Fatalf("%s: id %d has value %q inside the snapshot", mode.name, id, v)
			}
		}
	}

	// A snapshot pinned now sees all 30 rows.
	after, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin after: %v", err)
	}
	rows, err := after.Query("kv", client.WithIndex("by_id"))
	if err != nil {
		t.Fatalf("after query: %v", err)
	}
	if got := collectIDs(t, rows); len(got) != 30 {
		t.Fatalf("fresh snapshot saw %d rows, want 30", len(got))
	}
	if err := after.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
}

// TestTxnDisconnectAborts proves the server rolls back transactions
// orphaned by a dropped connection: staged writes must never surface.
func TestTxnDisconnectAborts(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)

	cl1, err := client.Dial(f.addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	setupKV(t, cl1)
	txn, err := cl1.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	var b client.Batch
	b.Insert(kvRow(7, "orphan"))
	if _, err := txn.Apply("kv", &b); err != nil {
		t.Fatalf("stage: %v", err)
	}
	cl1.Close() // connection drops with the txn still open

	cl2, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	defer cl2.Close()
	// The server aborts asynchronously on connection teardown; the
	// staged row must never surface, before or after that runs.
	for i := 0; i < 10; i++ {
		_, found, err := cl2.Get("kv", "by_id", tuple.Int64(7))
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if found {
			t.Fatalf("orphaned transaction's staged row became visible")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The engine must still accept fresh transactions (no leaked locks).
	txn2, err := cl2.Begin()
	if err != nil {
		t.Fatalf("Begin after disconnect: %v", err)
	}
	var b2 client.Batch
	b2.Insert(kvRow(8, "alive"))
	if _, err := txn2.Apply("kv", &b2); err != nil {
		t.Fatalf("stage after disconnect: %v", err)
	}
	if err := txn2.Commit(); err != nil {
		t.Fatalf("commit after disconnect: %v", err)
	}
	_, found, err := cl2.Get("kv", "by_id", tuple.Int64(8))
	if err != nil || !found {
		t.Fatalf("post-disconnect commit lost: found=%v err=%v", found, err)
	}
}

func TestTxnAbortOverWire(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	setupKV(t, cl)

	txn, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	var b client.Batch
	for i := 0; i < 20; i++ {
		b.Insert(kvRow(int64(i), fmt.Sprintf("v%d", i)))
	}
	if _, err := txn.Apply("kv", &b); err != nil {
		t.Fatalf("stage: %v", err)
	}
	if err := txn.Abort(); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	rows, err := cl.Query("kv")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got := collectIDs(t, rows); len(got) != 0 {
		t.Fatalf("aborted rows visible: %v", got)
	}
	// Double finish is benign client-side.
	if err := txn.Abort(); err != nil {
		t.Fatalf("second Abort: %v", err)
	}
}
