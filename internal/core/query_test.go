package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// intSchema is all fixed-width fields so cache-resident scans can be
// asserted allocation-free (string decoding inherently allocates).
func intSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "a", Kind: tuple.KindInt64},
		tuple.Field{Name: "b", Kind: tuple.KindInt32},
		tuple.Field{Name: "blob", Kind: tuple.KindString},
	)
}

func intRow(i int) tuple.Row {
	return tuple.Row{
		tuple.Int64(int64(i)),
		tuple.Int64(int64(i * 3)),
		tuple.Int32(int32(i % 97)),
		tuple.String(fmt.Sprintf("padding-padding-%06d", i)),
	}
}

func newQueryFixture(t *testing.T, rows int, cached bool) (*Engine, *Table, *Index) {
	t.Helper()
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 2048})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	tb, err := e.CreateTable("t", intSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tb.Insert(intRow(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	var opts []IndexOption
	if cached {
		// A low bulk-load fill factor leaves enough leaf free space to
		// cache every key's payload, so warm scans are fully resident:
		// ~34 free bytes per key on a 1 KB leaf, whose by_id keys share
		// all but their last two bytes with the page prefix.
		opts = append(opts, WithCache("a", "b"), WithFillFactor(0.3))
	}
	ix, err := tb.CreateIndex("by_id", []string{"id"}, opts...)
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	return e, tb, ix
}

func TestTableQueryHeapOrder(t *testing.T) {
	_, tb, _ := newQueryFixture(t, 500, false)
	cur, err := tb.Query()
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer cur.Close()
	seen := 0
	for cur.Next() {
		if cur.RID() == storage.InvalidRID {
			t.Fatal("invalid RID from heap scan")
		}
		if got := len(cur.Row()); got != 4 {
			t.Fatalf("row width %d", got)
		}
		seen++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if seen != 500 {
		t.Fatalf("scanned %d rows, want 500", seen)
	}
	// Reverse heap order sees the same multiset.
	cur, _ = tb.Query(WithReverse())
	defer cur.Close()
	rev := 0
	for cur.Next() {
		rev++
	}
	if rev != 500 {
		t.Fatalf("reverse scanned %d rows", rev)
	}
}

func TestTableQueryProjectionAndLimit(t *testing.T) {
	_, tb, _ := newQueryFixture(t, 200, false)
	cur, err := tb.Query(WithProjection("b", "id"), WithLimit(25))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer cur.Close()
	n := 0
	for cur.Next() {
		row := cur.Row()
		if len(row) != 2 || row[0].Kind != tuple.KindInt32 || row[1].Kind != tuple.KindInt64 {
			t.Fatalf("bad projected row: %v", row)
		}
		n++
	}
	if n != 25 {
		t.Fatalf("limit served %d rows, want 25", n)
	}
	if _, err := tb.Query(WithProjection("nope")); err == nil {
		t.Fatal("unknown projection field must error")
	}
	if _, err := tb.Query(WithKeyRange([]tuple.Value{tuple.Int64(1)}, nil)); err == nil {
		t.Fatal("key bounds without an index must error")
	}
}

func TestIndexQueryRangePrefixReverse(t *testing.T) {
	_, tb, _ := newQueryFixture(t, 1000, false)
	lo, hi := []tuple.Value{tuple.Int64(100)}, []tuple.Value{tuple.Int64(200)}
	cur, err := tb.Query(WithIndex("by_id"), WithKeyRange(lo, hi))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer cur.Close()
	want := int64(100)
	for cur.Next() {
		if got := cur.Row()[0].Int; got != want {
			t.Fatalf("range scan: got id %d, want %d", got, want)
		}
		want++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if want != 200 {
		t.Fatalf("range scan ended at %d, want 200", want)
	}
	// Reverse range.
	cur, err = tb.Query(WithIndex("by_id"), WithKeyRange(lo, hi), WithReverse())
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer cur.Close()
	want = 199
	for cur.Next() {
		if got := cur.Row()[0].Int; got != want {
			t.Fatalf("reverse range: got id %d, want %d", got, want)
		}
		want--
	}
	if want != 99 {
		t.Fatalf("reverse range ended at %d, want 99", want)
	}
	// Prefix = point on a unique index.
	ix, _ := tb.Index("by_id")
	cur, err = ix.Query(WithPrefix(tuple.Int64(42)))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer cur.Close()
	if !cur.Next() || cur.Row()[0].Int != 42 || cur.Next() {
		t.Fatal("prefix query on unique index must yield exactly one row")
	}
	if _, err := ix.Query(WithPrefix(tuple.Int64(1)), WithKeyRange(lo, hi)); err == nil {
		t.Fatal("prefix + range must error")
	}
	if _, err := ix.Query(WithIndex("by_id")); err == nil {
		t.Fatal("WithIndex on Index.Query must error")
	}
}

func TestCursorLifecyclePinsAndDoubleClose(t *testing.T) {
	e, tb, _ := newQueryFixture(t, 600, false)
	cur, err := tb.Query(WithIndex("by_id"))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for i := 0; i < 10; i++ {
		if !cur.Next() {
			t.Fatal("cursor ended early")
		}
	}
	if pins := e.Pool().PinnedFrames(); pins != 1 {
		t.Fatalf("mid-scan pins = %d, want 1 (the cursor's leaf)", pins)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if pins := e.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("post-Close pins = %d, want 0", pins)
	}
	if err := cur.Close(); err != nil { // double Close is a no-op
		t.Fatalf("second Close: %v", err)
	}
	if cur.Next() {
		t.Fatal("Next after Close must return false")
	}
	// Exhaustion releases the pin without an explicit Close.
	cur, _ = tb.Query(WithIndex("by_id"))
	for cur.Next() {
	}
	if pins := e.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("post-exhaustion pins = %d, want 0", pins)
	}
}

func TestCursorAllRangeFunc(t *testing.T) {
	_, tb, _ := newQueryFixture(t, 300, false)
	cur, err := tb.Query(WithIndex("by_id"))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	want := int64(0)
	for rid, row := range cur.All() {
		if rid == storage.InvalidRID || row[0].Int != want {
			t.Fatalf("All(): rid=%v id=%d want %d", rid, row[0].Int, want)
		}
		want++
		if want == 100 {
			break // early break must close the cursor
		}
	}
	if want != 100 {
		t.Fatalf("All() yielded %d rows before break", want)
	}
	if pins := tb.engine.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("pins after early break = %d, want 0", pins)
	}
}

// TestQueryScanZeroAllocsPerRow pins the acceptance criterion: on the
// cache-resident path (coverable projection, warm cache) iteration
// performs zero allocations per row once cursor scratch has grown.
func TestQueryScanZeroAllocsPerRow(t *testing.T) {
	const rows = 2000
	_, tb, ix := newQueryFixture(t, rows, true)
	if _, err := ix.WarmCache(); err != nil {
		t.Fatalf("WarmCache: %v", err)
	}
	proj := []string{"id", "a", "b"}
	scan := func() (served, cacheHits int64) {
		cur, err := tb.Query(WithIndex("by_id"), WithProjection(proj...))
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		defer cur.Close()
		for cur.Next() {
		}
		st := cur.Stats()
		return st.Rows, st.CacheHits
	}
	scan() // warm sync.Pools and plan cache
	allocs := testing.AllocsPerRun(5, func() {
		if n, _ := scan(); n != rows {
			t.Fatalf("scan served %d rows", n)
		}
	})
	// The whole scan may allocate a fixed handful (cursor, driver,
	// scratch growth) but nothing per row.
	if perRow := allocs / rows; perRow >= 1 {
		t.Errorf("scan allocations: %.0f per %d-row scan (%.2f/row), want <1/row", allocs, rows, perRow)
	}
	if allocs > 32 {
		t.Errorf("scan allocations: %.0f per scan, want a fixed handful", allocs)
	}
	if _, hits := scan(); hits != rows {
		t.Fatalf("alloc test must run fully cache-resident, got %d/%d hits", hits, rows)
	}
}

// TestQueryConcurrentInserts scans while writers insert: run under
// -race in CI. The cursor must neither skip pre-existing keys nor stall
// writers (the pre-cursor Scan held the tree lock for its duration).
func TestQueryConcurrentInserts(t *testing.T) {
	_, tb, _ := newQueryFixture(t, 2000, false)
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tb.Insert(intRow(10000 + w*100000 + i)); err != nil {
					errCh <- err
					return
				}
				i++
			}
		}(w)
	}
	for round := 0; round < 10; round++ {
		cur, err := tb.Query(WithIndex("by_id"),
			WithKeyRange(nil, []tuple.Value{tuple.Int64(2000)}))
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		want := int64(0)
		for cur.Next() {
			if got := cur.Row()[0].Int; got != want {
				errCh <- fmt.Errorf("round %d: got id %d, want %d", round, got, want)
				break
			}
			want++
		}
		if err := cur.Close(); err != nil {
			errCh <- err
		}
		if want != 2000 {
			errCh <- fmt.Errorf("round %d: served %d stable keys, want 2000", round, want)
		}
		if len(errCh) > 0 {
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

func TestLookupAllStillWorks(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("multi", tuple.MustSchema(
		tuple.Field{Name: "k", Kind: tuple.KindInt64},
		tuple.Field{Name: "v", Kind: tuple.KindInt64},
	))
	for i := 0; i < 30; i++ {
		tb.Insert(tuple.Row{tuple.Int64(int64(i % 3)), tuple.Int64(int64(i))})
	}
	ix, err := tb.CreateIndex("by_k", []string{"k"}, NonUnique())
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	rows, err := ix.LookupAll(tuple.Int64(1))
	if err != nil {
		t.Fatalf("LookupAll: %v", err)
	}
	if len(rows) != 10 {
		t.Fatalf("LookupAll returned %d rows, want 10", len(rows))
	}
	for _, r := range rows {
		if r[0].Int != 1 || r[1].Int%3 != 1 {
			t.Fatalf("LookupAll wrong row: %v", r)
		}
	}
}
