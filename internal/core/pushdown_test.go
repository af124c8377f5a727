package core

import (
	"fmt"
	"testing"

	"repro/internal/tuple"
)

// bruteFilter applies filters to the full row set by brute force —
// the reference the pushdown tiers are checked against.
func bruteFilter(rows int, keep func(i int) bool) []int64 {
	var ids []int64
	for i := 0; i < rows; i++ {
		if keep(i) {
			ids = append(ids, int64(i))
		}
	}
	return ids
}

func collectIDs(t *testing.T, cur *Cursor, err error) ([]int64, QueryStats) {
	t.Helper()
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer cur.Close()
	var ids []int64
	for cur.Next() {
		ids = append(ids, cur.Row()[0].Int)
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	return ids, cur.Stats()
}

func TestFilterValidationAndHeapScan(t *testing.T) {
	_, tb, ix := newQueryFixture(t, 300, true)
	if _, err := ix.Query(WithFilter(Filter{Field: "nope", Op: CmpEq, Value: tuple.Int64(1)})); err == nil {
		t.Fatal("unknown filter field must error")
	}
	if _, err := ix.Query(WithFilter(Filter{Field: "a", Op: CmpEq, Value: tuple.String("x")})); err == nil {
		t.Fatal("kind-mismatched filter must error")
	}
	if _, err := ix.Query(WithFilter(Filter{Field: "a", Op: CmpOp(42), Value: tuple.Int64(1)})); err == nil {
		t.Fatal("unknown CmpOp must error")
	}
	// Filters work on plain heap scans too.
	cur, err := tb.Query(WithFilter(Filter{Field: "a", Op: CmpGt, Value: tuple.Int64(600)}))
	ids, _ := collectIDs(t, cur, err)
	want := bruteFilter(300, func(i int) bool { return 3*i > 600 })
	if len(ids) != len(want) {
		t.Fatalf("heap-scan filter: %d rows, want %d", len(ids), len(want))
	}
}

// aggSpecsAll exercises every operator across the tiers: count(*),
// count(field), sums of both numeric kinds, min/max on key and cached
// fields.
func aggSpecsAll() []AggSpec {
	return []AggSpec{
		{Op: AggCount},
		{Op: AggCount, Field: "b"},
		{Op: AggSum, Field: "a"},
		{Op: AggSum, Field: "b"},
		{Op: AggMin, Field: "id"},
		{Op: AggMax, Field: "id"},
		{Op: AggMin, Field: "b"},
		{Op: AggMax, Field: "b"},
	}
}

func assertAggEqual(t *testing.T, name string, got, want AggResult) {
	t.Helper()
	if got.Rows != want.Rows {
		t.Fatalf("%s: rows %d, want %d", name, got.Rows, want.Rows)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: %d values, want %d", name, len(got.Values), len(want.Values))
	}
	for i := range got.Values {
		g, w := got.Values[i], want.Values[i]
		if g.Kind != w.Kind || g.Null != w.Null || (!g.Null && g.Compare(w) != 0) {
			t.Fatalf("%s: value %d = %v, want %v", name, i, g, w)
		}
	}
}

// TestAggregatePushdownMatchesCursor is the acceptance invariant:
// pushed-down count/min/max/sum return identical results to
// cursor-side evaluation — unfiltered, filtered, serial and parallel.
func TestAggregatePushdownMatchesCursor(t *testing.T) {
	const rows = 3000
	_, _, ix := newQueryFixture(t, rows, true)
	if _, err := ix.WarmCache(); err != nil {
		t.Fatalf("WarmCache: %v", err)
	}
	cases := []struct {
		name string
		opts []QueryOption
	}{
		{"full", nil},
		{"keyfilter", []QueryOption{WithFilter(Filter{Field: "id", Op: CmpLt, Value: tuple.Int64(1234)})}},
		{"cachedfilter", []QueryOption{WithFilter(Filter{Field: "b", Op: CmpGe, Value: tuple.Int32(50)})}},
		{"bounded", []QueryOption{WithKeyRange([]tuple.Value{tuple.Int64(100)}, []tuple.Value{tuple.Int64(2900)})}},
		{"empty", []QueryOption{WithKeyRange([]tuple.Value{tuple.Int64(5000)}, nil)}},
	}
	for _, tc := range cases {
		pushed, err := ix.Aggregate(aggSpecsAll(), tc.opts...)
		if err != nil {
			t.Fatalf("%s: pushdown Aggregate: %v", tc.name, err)
		}
		if !pushed.Pushdown {
			t.Fatalf("%s: expected pushdown", tc.name)
		}
		cursor, err := ix.Aggregate(aggSpecsAll(), append([]QueryOption{WithCachePolicy(HeapOnly)}, tc.opts...)...)
		if err != nil {
			t.Fatalf("%s: cursor Aggregate: %v", tc.name, err)
		}
		if cursor.Pushdown {
			t.Fatalf("%s: HeapOnly must not push down", tc.name)
		}
		assertAggEqual(t, tc.name, pushed, cursor)
		for _, n := range []int{2, 4} {
			par, err := ix.Aggregate(aggSpecsAll(), append([]QueryOption{WithParallel(n)}, tc.opts...)...)
			if err != nil {
				t.Fatalf("%s n=%d: parallel Aggregate: %v", tc.name, n, err)
			}
			if par.Segments < 1 {
				t.Fatalf("%s n=%d: %d segments", tc.name, n, par.Segments)
			}
			assertAggEqual(t, tc.name+"/parallel", par, cursor)
		}
	}
	// A heap-tier aggregate field (blob) disables pushdown but stays
	// correct, as does a heap-tier filter.
	blobAgg := []AggSpec{{Op: AggMax, Field: "blob"}, {Op: AggCount}}
	res, err := ix.Aggregate(blobAgg)
	if err != nil {
		t.Fatalf("blob Aggregate: %v", err)
	}
	if res.Pushdown {
		t.Fatal("heap-field aggregate must not claim pushdown")
	}
	if res.Values[0].Str != fmt.Sprintf("padding-padding-%06d", rows-1) {
		t.Fatalf("max(blob) = %q", res.Values[0].Str)
	}
	if res.Values[1].Int != rows {
		t.Fatalf("count(*) = %d", res.Values[1].Int)
	}
}

func TestAggregateHeapAndValidation(t *testing.T) {
	const rows = 800
	_, tb, ix := newQueryFixture(t, rows, true)
	// Table.Aggregate folds heap order; results match the index path.
	heap, err := tb.Aggregate(aggSpecsAll())
	if err != nil {
		t.Fatalf("Table.Aggregate: %v", err)
	}
	idx, err := ix.Aggregate(aggSpecsAll())
	if err != nil {
		t.Fatalf("Index.Aggregate: %v", err)
	}
	assertAggEqual(t, "heap vs index", heap, idx)
	// Routed through WithIndex, Table.Aggregate hits the index path.
	routed, err := tb.Aggregate(aggSpecsAll(), WithIndex("by_id"))
	if err != nil {
		t.Fatalf("routed Aggregate: %v", err)
	}
	if !routed.Pushdown {
		t.Fatal("routed aggregate should push down")
	}
	assertAggEqual(t, "routed", routed, idx)
	// Validation.
	if _, err := ix.Aggregate(nil); err == nil {
		t.Fatal("empty specs must error")
	}
	if _, err := ix.Aggregate([]AggSpec{{Op: AggSum, Field: "blob"}}); err == nil {
		t.Fatal("sum over a string must error")
	}
	if _, err := ix.Aggregate([]AggSpec{{Op: AggSum}}); err == nil {
		t.Fatal("sum without a field must error")
	}
	if _, err := ix.Aggregate([]AggSpec{{Op: AggCount, Field: "nope"}}); err == nil {
		t.Fatal("unknown field must error")
	}
	if _, err := ix.Aggregate(aggSpecsAll(), WithLimit(5)); err == nil {
		t.Fatal("WithLimit must error")
	}
	if _, err := ix.Aggregate(aggSpecsAll(), WithReverse()); err == nil {
		t.Fatal("WithReverse must error")
	}
	if _, err := ix.Aggregate(aggSpecsAll(), WithProjection("id")); err == nil {
		t.Fatal("WithProjection must error")
	}
	if _, err := tb.Aggregate(aggSpecsAll(), WithParallel(4)); err == nil {
		t.Fatal("parallel heap aggregate must error")
	}
}

func TestAggregateNulls(t *testing.T) {
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 512})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	tb, err := e.CreateTable("n", intSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	// b is NULL on odd ids; an all-NULL field min/max yields NULL.
	for i := 0; i < 100; i++ {
		row := intRow(i)
		if i%2 == 1 {
			row[2] = tuple.Null(tuple.KindInt32)
		}
		row[1] = tuple.Null(tuple.KindInt64) // a: always NULL
		if _, err := tb.Insert(row); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	res, err := tb.Aggregate([]AggSpec{
		{Op: AggCount},
		{Op: AggCount, Field: "b"},
		{Op: AggSum, Field: "b"},
		{Op: AggMin, Field: "a"},
		{Op: AggSum, Field: "a"},
	})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if res.Values[0].Int != 100 {
		t.Fatalf("count(*) = %d", res.Values[0].Int)
	}
	if res.Values[1].Int != 50 {
		t.Fatalf("count(b) = %d, want 50 (NULLs don't count)", res.Values[1].Int)
	}
	var wantSum int64
	for i := 0; i < 100; i += 2 {
		wantSum += int64(i % 97)
	}
	if res.Values[2].Int != wantSum {
		t.Fatalf("sum(b) = %d, want %d", res.Values[2].Int, wantSum)
	}
	if !res.Values[3].Null || res.Values[3].Kind != tuple.KindInt64 {
		t.Fatalf("min(all-NULL) = %v, want typed NULL", res.Values[3])
	}
	if res.Values[4].Null || res.Values[4].Int != 0 {
		t.Fatalf("sum(all-NULL) = %v, want 0", res.Values[4])
	}
	// NULLs never match filters, even CmpNe.
	cur, err := tb.Query(WithFilter(Filter{Field: "b", Op: CmpNe, Value: tuple.Int32(-1)}))
	ids, _ := collectIDs(t, cur, err)
	if len(ids) != 50 {
		t.Fatalf("CmpNe over NULLs matched %d rows, want 50", len(ids))
	}
}
