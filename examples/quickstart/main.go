// Quickstart: create a table, enable the index cache, and watch point
// queries stop touching the heap.
package main

import (
	"fmt"
	"log"

	nblb "repro"
)

func main() {
	// An in-memory engine with defaults (8 KiB pages, 4096-frame pool).
	db, err := nblb.Open(nblb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	users, err := db.CreateTable("users", nblb.MustSchema(
		nblb.Field{Name: "id", Kind: nblb.KindInt64},
		nblb.Field{Name: "name", Kind: nblb.KindString, Size: 64},
		nblb.Field{Name: "karma", Kind: nblb.KindInt32},
		nblb.Field{Name: "active", Kind: nblb.KindBool},
		nblb.Field{Name: "bio", Kind: nblb.KindString},
	))
	if err != nil {
		log.Fatal(err)
	}

	// Bulk ingest goes through the unified Batch API: heap placement in
	// one run under one lock, index entries applied in leaf-grouped sorted
	// runs — one descent per leaf run instead of per row. (One-row
	// users.Insert still works; it is a one-op batch underneath.)
	var batch nblb.Batch
	for i := 0; i < 1000; i++ {
		batch.Insert(nblb.Row{
			nblb.Int64(int64(i)),
			nblb.String(fmt.Sprintf("user-%04d", i)),
			nblb.Int32(int32(i % 500)),
			nblb.Bool(i%3 == 0),
			nblb.String("a longer biography that queries rarely need"),
		})
	}
	if _, err := users.Apply(&batch); err != nil {
		log.Fatal(err)
	}

	// The index on id caches (karma, active) in its leaves' free space:
	// the paper's §2.1 technique. The index is bulk-built at the
	// canonical 68% fill factor, so ~32% of every leaf is reusable.
	byID, err := users.CreateIndex("by_id", []string{"id"},
		nblb.WithCache("karma", "active"))
	if err != nil {
		log.Fatal(err)
	}

	// First lookup: cache miss → heap access → cache fill.
	proj := []string{"id", "karma", "active"}
	row, res, err := byID.Lookup(proj, nblb.Int64(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first lookup:  row=%v cacheHit=%v heapAccess=%v filled=%v\n",
		row, res.CacheHit, res.HeapAccess, res.CacheFilled)

	// Second lookup: answered entirely from the index page.
	row, res, err = byID.Lookup(proj, nblb.Int64(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second lookup: row=%v cacheHit=%v heapAccess=%v\n",
		row, res.CacheHit, res.HeapAccess)

	// Projections needing uncached fields transparently fall back.
	row, res, err = byID.Lookup([]string{"bio"}, nblb.Int64(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bio lookup:    len(bio)=%d cacheHit=%v heapAccess=%v\n",
		len(row[0].Str), res.CacheHit, res.HeapAccess)

	st := byID.Cache().Stats()
	fmt.Printf("cache stats:   lookups=%d hits=%d inserts=%d\n",
		st.Lookups, st.Hits, st.Inserts)

	// Range reads go through the same unified Query/Cursor API: one
	// pinned leaf at a time, sibling links instead of re-descents, and
	// coverable projections answered from the index cache per row.
	// Warm the cache first so the scan can answer from leaf free space;
	// entries beyond each leaf's slot budget still fall back per row.
	if _, err := byID.WarmCache(); err != nil {
		log.Fatal(err)
	}
	cur, err := users.Query(
		nblb.WithIndex("by_id"),
		nblb.WithKeyRange(
			[]nblb.Value{nblb.Int64(100)},
			[]nblb.Value{nblb.Int64(110)},
		),
		nblb.WithProjection("id", "karma", "active"),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cur.Close()
	for cur.Next() {
		r := cur.Row() // cursor scratch: Clone to retain
		fmt.Printf("range row:     id=%d karma=%d active=%v\n",
			r[0].Int, r[1].Int, r[2].Int != 0)
	}
	if err := cur.Err(); err != nil {
		log.Fatal(err)
	}
	qs := cur.Stats()
	fmt.Printf("range scan:    rows=%d cacheHits=%d heapReads=%d\n",
		qs.Rows, qs.CacheHits, qs.HeapReads)

	// Go 1.23 range-over-func, with a limit. The cursor closes itself
	// when the loop ends.
	top, err := users.Query(nblb.WithIndex("by_id"), nblb.WithReverse(),
		nblb.WithLimit(3), nblb.WithProjection("id"))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range top.All() {
		fmt.Printf("top id:        %d\n", r[0].Int)
	}
}
