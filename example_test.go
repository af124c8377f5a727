package nblb_test

import (
	"fmt"
	"log"

	nblb "repro"
)

// Example shows the package's core loop: declare a table, enable the
// index cache on the fields hot queries project, and watch lookups stop
// touching the heap.
func Example() {
	db, err := nblb.Open(nblb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	articles, err := db.CreateTable("articles", nblb.MustSchema(
		nblb.Field{Name: "id", Kind: nblb.KindInt64},
		nblb.Field{Name: "views", Kind: nblb.KindInt32},
		nblb.Field{Name: "body", Kind: nblb.KindString},
	))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := articles.Insert(nblb.Row{
			nblb.Int64(int64(i)),
			nblb.Int32(int32(i * 3)),
			nblb.String("long article body"),
		}); err != nil {
			log.Fatal(err)
		}
	}

	// The index recycles its leaves' free space as a cache of `views`.
	byID, err := articles.CreateIndex("by_id", []string{"id"}, nblb.WithCache("views"))
	if err != nil {
		log.Fatal(err)
	}

	// First lookup fills the cache; the second never touches the heap.
	if _, _, err := byID.Lookup([]string{"views"}, nblb.Int64(7)); err != nil {
		log.Fatal(err)
	}
	row, res, err := byID.Lookup([]string{"views"}, nblb.Int64(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("views=%d cacheHit=%v heapAccess=%v\n", row[0].Int, res.CacheHit, res.HeapAccess)
	// Output: views=21 cacheHit=true heapAccess=false
}

// ExampleTable_Query shows the unified range-read API: a cursor over a
// key range whose covered projection is answered from the index cache,
// with the Go 1.23 range-over-func adapter.
func ExampleTable_Query() {
	db, err := nblb.Open(nblb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	articles, err := db.CreateTable("articles", nblb.MustSchema(
		nblb.Field{Name: "id", Kind: nblb.KindInt64},
		nblb.Field{Name: "views", Kind: nblb.KindInt32},
		nblb.Field{Name: "body", Kind: nblb.KindString},
	))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := articles.Insert(nblb.Row{
			nblb.Int64(int64(i)),
			nblb.Int32(int32(i * 3)),
			nblb.String("long article body"),
		}); err != nil {
			log.Fatal(err)
		}
	}
	byID, err := articles.CreateIndex("by_id", []string{"id"}, nblb.WithCache("views"))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := byID.WarmCache(); err != nil {
		log.Fatal(err)
	}

	cur, err := articles.Query(
		nblb.WithIndex("by_id"),
		nblb.WithKeyRange(
			[]nblb.Value{nblb.Int64(10)},
			[]nblb.Value{nblb.Int64(13)},
		),
		nblb.WithProjection("id", "views"), // covered: answered from the cache
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range cur.All() {
		fmt.Printf("id=%d views=%d\n", row[0].Int, row[1].Int)
	}
	if err := cur.Err(); err != nil {
		log.Fatal(err)
	}
	st := cur.Stats()
	fmt.Printf("rows=%d cacheHits=%d heapReads=%d\n", st.Rows, st.CacheHits, st.HeapReads)
	// Output:
	// id=10 views=30
	// id=11 views=33
	// id=12 views=36
	// rows=3 cacheHits=3 heapReads=0
}

// ExampleEngine_DropTable removes a table from the catalog; the name is
// free for a new table at once.
func ExampleEngine_DropTable() {
	db, err := nblb.Open(nblb.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	schema := nblb.MustSchema(nblb.Field{Name: "id", Kind: nblb.KindInt64})
	for _, name := range []string{"drafts", "posts"} {
		if _, err := db.CreateTable(name, schema); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.DropTable("drafts"); err != nil {
		log.Fatal(err)
	}
	fmt.Println(db.Tables())
	if _, err := db.CreateTable("drafts", schema); err != nil {
		log.Fatal(err)
	}
	fmt.Println(db.Tables())
	// Output:
	// [posts]
	// [drafts posts]
}
