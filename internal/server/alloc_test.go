//go:build !race

package server_test

import (
	"testing"

	"repro/client"
)

// Allocation budgets of the served request path, measured over a real
// loopback client + server. testing.AllocsPerRun counts process-wide
// mallocs, so the client's and the server's allocations both land in
// the number — it is the in-tree stand-in for the served benchmark's
// allocs_per_op. Each budget is the measured figure + 2; the same test
// at the commit before the request path was pooled measured Get 34,
// CoveredPointQuery 61, ApplyInsert 43, ApplyUpdate 49, and before a
// cycle reused its result and the pre-image its scratch, ApplyInsert 7
// and ApplyUpdate 11. The range scans are the served benchmark's: 100
// rows of (id, score, flag), answered from the §2.1 cache when warm and
// from heap records with two strings in them when cold; before a record
// was decoded into the fields its reader asked for and a page into one
// slab the cold one measured 319.
//
// A read allocates its answer and little else: a Get its row and the
// one copy of the payload its strings are views of (client side — the
// server encodes the row its point cursor shows it), a query its Rows, a
// longer page its rows and slab. Before the cursor, the Rows
// and each message's strings were one allocation apiece, Get measured
// 5, CoveredPointQuery 17, ApplyInsert and ApplyUpdate 5, Txn 77 and
// both range scans 20. A transaction allocates like a batch: before the
// Txn owned its stage (ops, claim sets, keys, records and undo log in
// one arena) and a transaction's Apply staged from the request's batch,
// Txn measured 55. A one-op write allocates only what its caller keeps,
// the client's batch and its answer's RIDs: before the server decoded
// a request as views of its frame, a transaction staged rows of its own
// (so the request's ops went back to their pool) and an all-success
// answer dropped its error list, ApplyInsert and ApplyUpdate measured 4
// and Txn 22. A served query or transaction allocates only what the
// client keeps — the transaction its handle, its Rows, the page's
// payload copy, its answer's RIDs and the caller's batch: before each
// request reused its cursor, the binary handler read rows as views and
// a connection recycled its transactions, CoveredPointQuery measured 2,
// Txn 17 and both range scans 4.
//
// Skipped under -race: the race detector instruments allocations and
// changes the counts.
func TestServedAllocBudgets(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	const n = 2000
	rids := setupItems(t, f.eng, n)
	cl, err := client.Dial(f.addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	// Expected rows are built up front: the measured closures must not
	// allocate on their own account.
	want := make([]client.Row, n)
	for i := range want {
		want[i] = itemRow(int64(i), 0)
	}
	updates := [2]client.Row{itemRow(5, 1), itemRow(5, 2)}
	// The transaction moves ids 10 and 11 between versions 1 and 2.
	txnRows := [2][2]client.Row{{itemRow(10, 1), itemRow(11, 1)}, {itemRow(10, 2), itemRow(11, 2)}}
	txnLo, txnHi := client.Row{client.Int64(10)}, client.Row{client.Int64(12)}
	fresh := make([]client.Row, 0, 1000) // more than warm-up + measured runs
	for i := 0; i < cap(fresh); i++ {
		fresh = append(fresh, itemRow(int64(n+i), 0))
	}
	same := func(got, want client.Row) {
		if len(got) != len(want) {
			t.Fatalf("row has %d fields, want %d", len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("field %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
	var id int64
	next := func() int64 { id = (id*31 + 7) % n; return id }
	fail := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	ver, txnVer := 0, 0
	scan := func(lo int64) {
		rows, err := cl.Query("items", client.WithIndex("by_id"),
			client.WithKeyRange(client.Row{client.Int64(lo)}, client.Row{client.Int64(lo + 100)}),
			client.WithProjection(itemsCovered...))
		fail(err)
		got := lo
		for ; rows.Next(); got++ {
			same(rows.Row(), want[got][:3])
		}
		fail(rows.Err())
		if got != lo+100 {
			t.Fatalf("scan from %d served %d rows", lo, got-lo)
		}
	}
	tb, err := f.eng.Table("items")
	fail(err)
	byID, err := tb.Index("by_id")
	fail(err)
	var coldHits int64 // cache hits when the last case began
	cases := []struct {
		name   string
		budget float64
		before func() // runs once, ahead of the warm-up
		op     func()
	}{
		{"Get", 4, nil, func() {
			id := next()
			row, found, err := cl.Get("items", "by_id", client.Int64(id))
			fail(err)
			if !found {
				t.Fatalf("id %d not found", id)
			}
			same(row, want[id])
		}},
		{"CoveredPointQuery", 3, nil, func() {
			id := next()
			row, err := coveredPoint(cl, id)
			fail(err)
			same(row, want[id][:3])
		}},
		{"ApplyInsert", 4, nil, func() {
			var b client.Batch
			b.Insert(fresh[0])
			fresh = fresh[1:]
			res, err := cl.Apply("items", &b)
			fail(err)
			if res.Applied != 1 {
				t.Fatalf("apply: %v", res.Err(0))
			}
		}},
		{"ApplyUpdate", 4, nil, func() {
			ver++
			var b client.Batch
			b.Update(rids[5], updates[ver&1])
			res, err := cl.Apply("items", &b)
			fail(err)
			if res.Applied != 1 {
				t.Fatalf("apply: %v", res.Err(0))
			}
			rids[5] = res.RIDs[0]
		}},
		// A snapshot read of two rows, two updates staged, one commit.
		{"Txn", 8, nil, func() {
			txnVer ^= 1
			tx, err := cl.Begin()
			fail(err)
			rows, err := tx.Query("items", client.WithIndex("by_id"), client.WithKeyRange(txnLo, txnHi), client.WithRIDs())
			fail(err)
			var b client.Batch
			for i := 0; rows.Next(); i++ {
				if id := rows.Row()[0].Int; id != int64(10+i) {
					t.Fatalf("txn read id %d, want %d", id, 10+i)
				}
				b.Update(rows.RID(), txnRows[txnVer][i])
			}
			fail(rows.Err())
			res, err := tx.Apply("items", &b)
			fail(err)
			if res.Applied != 2 {
				t.Fatalf("txn stage: %v %v", res.Err(0), res.Err(1))
			}
			fail(tx.Commit())
		}},
		{"CoveredRangeScanWarm", 5, func() {
			_, err := byID.WarmCache()
			fail(err)
		}, func() { scan(100 + next()%1000) }},
		// Scans probe the cache and never fill or repair it: invalidated
		// once, it stays cold for as long as nothing but scans runs.
		{"CoveredRangeScanCold", 5, func() {
			byID.Cache().InvalidateAll()
			coldHits = byID.Cache().Stats().Hits
		}, func() { scan(100 + next()%1000) }},
	}
	for _, tc := range cases {
		if tc.before != nil {
			tc.before()
		}
		for i := 0; i < 200; i++ { // warm pools, caches and the projection plan
			tc.op()
		}
		got := testing.AllocsPerRun(500, tc.op)
		t.Logf("%-20s %5.1f allocs/op (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", tc.name, got, tc.budget)
		}
	}
	if hits := byID.Cache().Stats().Hits - coldHits; hits != 0 {
		t.Errorf("the cold scan found %d rows in the cache", hits)
	}
}
