package core

import (
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
	e, tb, ix := newQueryFixture(t, 300, true)
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
	// NULLs never match filters, even CmpNe: b is NULL on odd ids.
	nt, err := e.CreateTable("n", intSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := 0; i < 100; i++ {
		row := intRow(i)
		if i%2 == 1 {
			row[2] = tuple.Null(tuple.KindInt32)
		}
		if _, err := nt.Insert(row); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	cur, err = nt.Query(WithFilter(Filter{Field: "b", Op: CmpNe, Value: tuple.Int32(-1)}))
	if ids, _ = collectIDs(t, cur, err); len(ids) != 50 {
		t.Fatalf("CmpNe over NULLs matched %d rows, want 50", len(ids))
	}
}
