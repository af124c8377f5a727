package core

import (
	"fmt"
	"testing"

	"repro/internal/tuple"
)

func newTestEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 512})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func pagesSchema() *tuple.Schema {
	// Modeled on Wikipedia's page table: the name_title index keys
	// (namespace, title) and caches 4 small fields (Section 2.1.4).
	return tuple.MustSchema(
		tuple.Field{Name: "page_id", Kind: tuple.KindInt64},
		tuple.Field{Name: "namespace", Kind: tuple.KindInt32},
		tuple.Field{Name: "title", Kind: tuple.KindString, Size: 64},
		tuple.Field{Name: "is_redirect", Kind: tuple.KindBool},
		tuple.Field{Name: "latest_rev", Kind: tuple.KindInt64},
		tuple.Field{Name: "len", Kind: tuple.KindInt32},
		tuple.Field{Name: "touched", Kind: tuple.KindTimestamp},
		tuple.Field{Name: "content", Kind: tuple.KindString},
	)
}

func pageRow(i int) tuple.Row {
	return tuple.Row{
		tuple.Int64(int64(i)),
		tuple.Int32(0),
		tuple.String(fmt.Sprintf("Title_%05d", i)),
		tuple.Bool(i%7 == 0),
		tuple.Int64(int64(i * 10)),
		tuple.Int32(int32(100 + i)),
		tuple.TimestampUnix(1300000000 + int64(i)),
		tuple.String(fmt.Sprintf("body of article %d", i)),
	}
}

func TestEngineCreateTableAndCatalog(t *testing.T) {
	e := newTestEngine(t)
	if _, err := e.CreateTable("", pagesSchema()); err == nil {
		t.Error("empty name should fail")
	}
	tb, err := e.CreateTable("page", pagesSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := e.CreateTable("page", pagesSchema()); err == nil {
		t.Error("duplicate table should fail")
	}
	got, err := e.Table("page")
	if err != nil || got != tb {
		t.Errorf("Table lookup: %v %v", got, err)
	}
	if _, err := e.Table("missing"); err == nil {
		t.Error("missing table should fail")
	}
	if names := e.Tables(); len(names) != 1 || names[0] != "page" {
		t.Errorf("Tables() = %v", names)
	}
	if err := e.DropTable("page"); err != nil {
		t.Fatalf("DropTable: %v", err)
	}
	if err := e.DropTable("page"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestTableCRUD(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	rid, err := tb.Insert(pageRow(1))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	row, err := tb.Get(rid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !row.Equal(pageRow(1)) {
		t.Error("row round trip mismatch")
	}
	updated := pageRow(1)
	updated[5] = tuple.Int32(999)
	nrid, err := tb.Update(rid, updated)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	row, _ = tb.Get(nrid)
	if row[5].Int != 999 {
		t.Error("update not applied")
	}
	if err := tb.Delete(nrid); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if tb.Rows() != 0 {
		t.Errorf("Rows = %d after delete", tb.Rows())
	}
	if _, err := tb.Get(nrid); err == nil {
		t.Error("Get of deleted row should fail")
	}
}

func TestIndexLookupThroughCache(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	const n = 500
	for i := 0; i < n; i++ {
		if _, err := tb.Insert(pageRow(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	ix, err := tb.CreateIndex("name_title", []string{"namespace", "title"},
		WithCache("is_redirect", "latest_rev", "len", "touched"),
		WithFillFactor(0.68), WithCacheSeed(42))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	proj := []string{"namespace", "title", "latest_rev", "len"}
	key := func(i int) []tuple.Value {
		return []tuple.Value{tuple.Int32(0), tuple.String(fmt.Sprintf("Title_%05d", i))}
	}
	// First lookup: miss, fills cache.
	row, res, err := ix.Lookup(proj, key(7)...)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if !res.Found || res.CacheHit || !res.HeapAccess || !res.CacheFilled {
		t.Errorf("first lookup result: %+v", res)
	}
	if row[2].Int != 70 || row[3].Int != 107 {
		t.Errorf("projected row wrong: %v", row)
	}
	// Second lookup: answered from the index cache, no heap access.
	row, res, err = ix.Lookup(proj, key(7)...)
	if err != nil {
		t.Fatalf("Lookup 2: %v", err)
	}
	if !res.Found || !res.CacheHit || res.HeapAccess {
		t.Errorf("second lookup result: %+v", res)
	}
	if row[2].Int != 70 {
		t.Errorf("cached row wrong: %v", row)
	}
	// Projection needing an uncached field must go to the heap.
	_, res, err = ix.Lookup([]string{"content"}, key(7)...)
	if err != nil {
		t.Fatalf("Lookup 3: %v", err)
	}
	if res.CacheHit || !res.HeapAccess {
		t.Errorf("uncovered projection result: %+v", res)
	}
	// Missing key.
	_, res, err = ix.Lookup(proj, tuple.Int32(0), tuple.String("Absent"))
	if err != nil {
		t.Fatalf("Lookup absent: %v", err)
	}
	if res.Found {
		t.Error("absent key reported found")
	}
}

func TestIndexCacheInvalidationOnUpdate(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	for i := 0; i < 50; i++ {
		tb.Insert(pageRow(i))
	}
	ix, err := tb.CreateIndex("name_title", []string{"namespace", "title"},
		WithCache("latest_rev"), WithCacheSeed(1))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	proj := []string{"latest_rev"}
	key := []tuple.Value{tuple.Int32(0), tuple.String("Title_00003")}
	// Fill + verify cached value.
	ix.Lookup(proj, key...)
	row, res, _ := ix.Lookup(proj, key...)
	if !res.CacheHit || row[0].Int != 30 {
		t.Fatalf("precondition: cache hit with 30, got %+v %v", res, row)
	}
	// Update the cached field through the table API.
	rid, found, err := ix.LookupRID(key...)
	if err != nil || !found {
		t.Fatalf("LookupRID: %v %v", found, err)
	}
	newRow := pageRow(3)
	newRow[4] = tuple.Int64(777)
	if _, err := tb.Update(rid, newRow); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// The stale entry must not be served.
	row, res, err = ix.Lookup(proj, key...)
	if err != nil {
		t.Fatalf("Lookup after update: %v", err)
	}
	if row[0].Int != 777 {
		t.Fatalf("stale cache served: got %d, want 777 (res=%+v)", row[0].Int, res)
	}
}

func TestIndexCacheInvalidationOnDelete(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	for i := 0; i < 50; i++ {
		tb.Insert(pageRow(i))
	}
	ix, _ := tb.CreateIndex("name_title", []string{"namespace", "title"},
		WithCache("latest_rev"), WithCacheSeed(1))
	key := []tuple.Value{tuple.Int32(0), tuple.String("Title_00010")}
	ix.Lookup([]string{"latest_rev"}, key...)
	rid, _, _ := ix.LookupRID(key...)
	if err := tb.Delete(rid); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	_, res, err := ix.Lookup([]string{"latest_rev"}, key...)
	if err != nil {
		t.Fatalf("Lookup after delete: %v", err)
	}
	if res.Found {
		t.Error("deleted row still found via index")
	}
}

func TestEngineRestartInvalidatesCaches(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	for i := 0; i < 50; i++ {
		tb.Insert(pageRow(i))
	}
	ix, _ := tb.CreateIndex("name_title", []string{"namespace", "title"},
		WithCache("latest_rev"), WithCacheSeed(1))
	key := []tuple.Value{tuple.Int32(0), tuple.String("Title_00005")}
	ix.Lookup([]string{"latest_rev"}, key...)
	_, res, _ := ix.Lookup([]string{"latest_rev"}, key...)
	if !res.CacheHit {
		t.Fatal("precondition: cache hit")
	}
	if err := e.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	row, res, err := ix.Lookup([]string{"latest_rev"}, key...)
	if err != nil {
		t.Fatalf("Lookup after restart: %v", err)
	}
	if res.CacheHit {
		t.Error("cache hit right after restart: stale volatile data survived")
	}
	if row[0].Int != 50 {
		t.Errorf("wrong value after restart: %d", row[0].Int)
	}
}

func TestIndexOnEmptyTableThenInserts(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	ix, err := tb.CreateIndex("name_title", []string{"namespace", "title"},
		WithCache("latest_rev"))
	if err != nil {
		t.Fatalf("CreateIndex on empty table: %v", err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tb.Insert(pageRow(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	key := []tuple.Value{tuple.Int32(0), tuple.String("Title_00042")}
	row, res, err := ix.Lookup([]string{"latest_rev"}, key...)
	if err != nil || !res.Found {
		t.Fatalf("Lookup: %+v %v", res, err)
	}
	if row[0].Int != 420 {
		t.Errorf("got %d", row[0].Int)
	}
}

func TestUniqueIndexRejectsDuplicates(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	tb.CreateIndex("pk", []string{"page_id"})
	if _, err := tb.Insert(pageRow(1)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if _, err := tb.Insert(pageRow(1)); err == nil {
		t.Error("duplicate key insert should fail")
	}
}

func TestNonUniqueIndexLookupAll(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	ix, err := tb.CreateIndex("by_ns", []string{"namespace"}, NonUnique())
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	for i := 0; i < 20; i++ {
		r := pageRow(i)
		r[1] = tuple.Int32(int32(i % 3))
		tb.Insert(r)
	}
	rows, err := ix.LookupAll(tuple.Int32(1))
	if err != nil {
		t.Fatalf("LookupAll: %v", err)
	}
	want := 0
	for i := 0; i < 20; i++ {
		if i%3 == 1 {
			want++
		}
	}
	if len(rows) != want {
		t.Errorf("LookupAll returned %d rows, want %d", len(rows), want)
	}
	// Cache on non-unique index must be rejected.
	if _, err := tb.CreateIndex("bad", []string{"namespace"}, NonUnique(), WithCache("len")); err == nil {
		t.Error("cache on non-unique index should fail")
	}
}

func TestCreateIndexValidation(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	if _, err := tb.CreateIndex("", []string{"page_id"}); err == nil {
		t.Error("empty index name should fail")
	}
	if _, err := tb.CreateIndex("x", nil); err == nil {
		t.Error("no key fields should fail")
	}
	if _, err := tb.CreateIndex("x", []string{"nope"}); err == nil {
		t.Error("unknown key field should fail")
	}
	if _, err := tb.CreateIndex("x", []string{"page_id"}, WithCache("nope")); err == nil {
		t.Error("unknown cached field should fail")
	}
	if _, err := tb.CreateIndex("x", []string{"page_id"}, WithCache("content")); err == nil {
		t.Error("variable-width cached field should fail")
	}
	tb.CreateIndex("ok", []string{"page_id"})
	if _, err := tb.CreateIndex("ok", []string{"page_id"}); err == nil {
		t.Error("duplicate index name should fail")
	}
}

func TestWarmCache(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	for i := 0; i < 200; i++ {
		tb.Insert(pageRow(i))
	}
	ix, _ := tb.CreateIndex("name_title", []string{"namespace", "title"},
		WithCache("latest_rev", "len"), WithCacheSeed(3))
	n, err := ix.WarmCache()
	if err != nil {
		t.Fatalf("WarmCache: %v", err)
	}
	if n == 0 {
		t.Fatal("WarmCache installed nothing")
	}
	// A good share of lookups right after warming should hit; the cache
	// cannot cover every key when leaves hold more keys than slots.
	hits := 0
	for i := 0; i < 200; i++ {
		_, res, err := ix.Lookup([]string{"latest_rev"},
			tuple.Int32(0), tuple.String(fmt.Sprintf("Title_%05d", i)))
		if err != nil || !res.Found {
			t.Fatalf("Lookup %d: %+v %v", i, res, err)
		}
		if res.CacheHit {
			hits++
		}
	}
	if hits < 40 {
		t.Errorf("only %d/200 cache hits after WarmCache", hits)
	}
}

func TestUpdateRelocationKeepsIndexConsistent(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	ix, _ := tb.CreateIndex("pk", []string{"page_id"}, WithCache("len"))
	rid, _ := tb.Insert(pageRow(1))
	// Fill the row's page so a growing update must relocate it.
	for i := 2; i < 40; i++ {
		tb.Insert(pageRow(i))
	}
	grown := pageRow(1)
	grown[7] = tuple.String(string(make([]byte, 700)))
	nrid, err := tb.Update(rid, grown)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if nrid == rid {
		t.Skip("row did not relocate; page larger than expected")
	}
	row, res, err := ix.Lookup(nil, tuple.Int64(1))
	if err != nil || !res.Found {
		t.Fatalf("Lookup after relocation: %+v %v", res, err)
	}
	if res.RID != nrid {
		t.Errorf("index points at %v, row lives at %v", res.RID, nrid)
	}
	if len(row[7].Str) != 700 {
		t.Error("relocated row content wrong")
	}
}

func TestTableScanDecodes(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	for i := 0; i < 25; i++ {
		tb.Insert(pageRow(i))
	}
	cur, err := tb.Query()
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	seen := 0
	for cur.Next() {
		seen++
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	if seen != 25 {
		t.Errorf("scanned %d rows", seen)
	}
}
