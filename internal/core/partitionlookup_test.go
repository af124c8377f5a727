package core

import (
	"fmt"
	"testing"

	"repro/internal/tuple"
)

// Additional index edge-case coverage: composite keys with NULLs,
// key-prefix queries, and index maintenance across the full CRUD
// lifecycle of a row.

// prefixRows reads every row whose leading key fields equal keyVals.
func prefixRows(t *testing.T, ix *Index, keyVals ...tuple.Value) []tuple.Row {
	t.Helper()
	cur, err := ix.Query(WithPrefix(keyVals...))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	_, rows, _ := drainKeys(t, cur)
	return rows
}

func TestLookupWithNullKeyComponent(t *testing.T) {
	e := newTestEngine(t)
	schema := tuple.MustSchema(
		tuple.Field{Name: "a", Kind: tuple.KindInt32},
		tuple.Field{Name: "b", Kind: tuple.KindString, Size: 16},
		tuple.Field{Name: "v", Kind: tuple.KindInt64},
	)
	tb, err := e.CreateTable("t", schema)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	ix, err := tb.CreateIndex("ab", []string{"a", "b"}, WithCache("v"))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	rows := []tuple.Row{
		{tuple.Null(tuple.KindInt32), tuple.String("x"), tuple.Int64(1)},
		{tuple.Int32(0), tuple.Null(tuple.KindString), tuple.Int64(2)},
		{tuple.Int32(0), tuple.String("x"), tuple.Int64(3)},
	}
	for _, r := range rows {
		if _, err := tb.Insert(r); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	for _, r := range rows {
		row, res, err := ix.Lookup([]string{"v"}, r[0], r[1])
		if err != nil || !res.Found {
			t.Fatalf("Lookup(%v,%v): %+v %v", r[0], r[1], res, err)
		}
		if row[0].Int != r[2].Int {
			t.Errorf("wrong row for (%v,%v): %d", r[0], r[1], row[0].Int)
		}
	}
}

func TestPrefixQueryDoesNotBleed(t *testing.T) {
	e := newTestEngine(t)
	schema := tuple.MustSchema(
		tuple.Field{Name: "grp", Kind: tuple.KindString, Size: 8},
		tuple.Field{Name: "n", Kind: tuple.KindInt32},
	)
	tb, _ := e.CreateTable("t", schema)
	ix, err := tb.CreateIndex("grp", []string{"grp"}, NonUnique())
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	// "a" and "ab" are distinct groups; prefix scans must not conflate.
	for i := 0; i < 5; i++ {
		tb.Insert(tuple.Row{tuple.String("a"), tuple.Int32(int32(i))})
	}
	for i := 0; i < 3; i++ {
		tb.Insert(tuple.Row{tuple.String("ab"), tuple.Int32(int32(i))})
	}
	if rows := prefixRows(t, ix, tuple.String("a")); len(rows) != 5 {
		t.Errorf("group \"a\" returned %d rows, want 5", len(rows))
	}
	if rows := prefixRows(t, ix, tuple.String("ab")); len(rows) != 3 {
		t.Errorf("group \"ab\" returned %d rows, want 3", len(rows))
	}
	if rows := prefixRows(t, ix, tuple.String("zzz")); len(rows) != 0 {
		t.Errorf("missing group returned %d rows", len(rows))
	}
}

func TestIndexMaintainedAcrossFullLifecycle(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	ix, err := tb.CreateIndex("name_title", []string{"namespace", "title"},
		WithCache("latest_rev", "len"))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	// Insert → lookup → key-changing update → lookup via both keys →
	// delete → lookup.
	rid, err := tb.Insert(pageRow(1))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	oldKey := []tuple.Value{tuple.Int32(0), tuple.String("Title_00001")}
	newKey := []tuple.Value{tuple.Int32(0), tuple.String("Renamed")}
	if _, res, _ := ix.Lookup(nil, oldKey...); !res.Found {
		t.Fatal("inserted row not found")
	}
	renamed := pageRow(1)
	renamed[2] = tuple.String("Renamed")
	rid, err = tb.Update(rid, renamed)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if _, res, _ := ix.Lookup(nil, oldKey...); res.Found {
		t.Error("old key still resolves after rename")
	}
	row, res, err := ix.Lookup(nil, newKey...)
	if err != nil || !res.Found {
		t.Fatalf("new key not found: %+v %v", res, err)
	}
	if row[2].Str != "Renamed" {
		t.Errorf("row content wrong: %v", row[2])
	}
	if err := tb.Delete(rid); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, res, _ := ix.Lookup(nil, newKey...); res.Found {
		t.Error("deleted row still found")
	}
	if err := ix.Tree().CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestManyIndexesOnOneTable(t *testing.T) {
	e := newTestEngine(t)
	tb, _ := e.CreateTable("page", pagesSchema())
	pk, err := tb.CreateIndex("pk", []string{"page_id"}, WithCache("len"))
	if err != nil {
		t.Fatalf("pk: %v", err)
	}
	nt, err := tb.CreateIndex("name_title", []string{"namespace", "title"}, WithCache("latest_rev"))
	if err != nil {
		t.Fatalf("name_title: %v", err)
	}
	byLen, err := tb.CreateIndex("by_len", []string{"len"}, NonUnique())
	if err != nil {
		t.Fatalf("by_len: %v", err)
	}
	for i := 0; i < 150; i++ {
		if _, err := tb.Insert(pageRow(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Every index answers consistently.
	for i := 0; i < 150; i += 13 {
		row1, res, err := pk.Lookup(nil, tuple.Int64(int64(i)))
		if err != nil || !res.Found {
			t.Fatalf("pk lookup %d: %v", i, err)
		}
		row2, res2, err := nt.Lookup(nil, tuple.Int32(0), tuple.String(fmt.Sprintf("Title_%05d", i)))
		if err != nil || !res2.Found {
			t.Fatalf("nt lookup %d: %v", i, err)
		}
		if !row1.Equal(row2) {
			t.Errorf("indexes disagree on row %d", i)
		}
	}
	if rows := prefixRows(t, byLen, tuple.Int32(100)); len(rows) != 1 {
		t.Errorf("by_len: %d rows", len(rows))
	}
	// Delete through one index; all must forget the row.
	rid, _, _ := pk.LookupRID(tuple.Int64(7))
	if err := tb.Delete(rid); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, res, _ := pk.Lookup(nil, tuple.Int64(7)); res.Found {
		t.Error("pk still finds deleted row")
	}
	if _, res, _ := nt.Lookup(nil, tuple.Int32(0), tuple.String("Title_00007")); res.Found {
		t.Error("name_title still finds deleted row")
	}
}
