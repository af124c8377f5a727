package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// Ownership tests for what QueryInto and BeginInto recycle. PoisonScratch
// is on for every test of this package (main_test.go), so a view kept
// past its lifetime reads 0xDB instead of plausible stale data.

// poisoned reports whether s is nothing but the poison byte.
func poisoned(s string) bool {
	return s != "" && strings.Trim(s, "\xdb") == ""
}

// TestQueryIntoRowsAreViews: a row a QueryInto cursor serves from the
// heap is a view of the cursor's record buffer — the next Next overwrites
// it and Close poisons it — while a Query cursor's rows own their
// strings. Both transaction and latest reads, which share the rule.
func TestQueryIntoRowsAreViews(t *testing.T) {
	e := newTestEngine(t)
	schema := tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "name", Kind: tuple.KindString},
	)
	tb, err := e.CreateTable("named", schema)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	// The middle row's name is empty, so its record ends where the first
	// row's name began: after the Next that serves it, the first name's
	// every byte lies in poisoned buffer.
	names := []string{"the-first-row-has-a-long-name-0123456789", "", "third"}
	var b Batch
	for i, name := range names {
		b.Insert(tuple.Row{tuple.Int64(int64(i)), tuple.String(name)})
	}
	if _, err := tb.Apply(&b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := tb.CreateIndex("by_id", []string{"id"}); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	tx := e.Begin()
	defer tx.Abort()

	var cur Cursor
	for _, open := range []struct {
		name string
		fn   func() error
	}{
		{"Table.QueryInto", func() error { return tb.QueryInto(&cur, WithIndex("by_id")) }},
		{"Txn.QueryInto", func() error { return tx.QueryInto(&cur, tb, WithIndex("by_id")) }},
	} {
		if err := open.fn(); err != nil {
			t.Fatalf("%s: %v", open.name, err)
		}
		if !cur.Next() {
			t.Fatalf("%s: no first row: %v", open.name, cur.Err())
		}
		first := cur.Row()[1].Str
		if first != names[0] {
			t.Fatalf("%s: first name %q, want %q", open.name, first, names[0])
		}
		if !cur.Next() || cur.Row()[1].Str != "" {
			t.Fatalf("%s: second row %v: %v", open.name, cur.Row(), cur.Err())
		}
		if !poisoned(first) {
			t.Fatalf("%s: a view kept past Next reads %q, want poison", open.name, first)
		}
		if !cur.Next() || cur.Row()[1].Str != names[2] {
			t.Fatalf("%s: third row %v: %v", open.name, cur.Row(), cur.Err())
		}
		row, third := cur.Row(), cur.Row()[1].Str
		if err := cur.Close(); err != nil {
			t.Fatalf("%s: Close: %v", open.name, err)
		}
		if !poisoned(third) {
			t.Fatalf("%s: a view kept past Close reads %q, want poison", open.name, third)
		}
		if row[0].Kind != poisonValue.Kind || row[0].Int != poisonValue.Int {
			t.Fatalf("%s: the row kept past Close reads %v, want poison", open.name, row)
		}
	}

	// Query's rows are copies: they survive Next and Close.
	c, err := tb.Query(WithIndex("by_id"))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var kept []string
	for c.Next() {
		kept = append(kept, c.Row()[1].Str)
	}
	c.Close()
	for i, s := range kept {
		if s != names[i] {
			t.Fatalf("Query row %d kept %q, want %q", i, s, names[i])
		}
	}
}

// TestBeginIntoStartsClean: a Txn recycled through BeginInto shows the
// next transaction nothing of the previous one — not its staged rows,
// not its unique-key claims or written targets (the next one stages the
// same keys and targets again), not its undo log (a later commit that
// fails rolls back its own effects only) — and an open Txn handed to
// BeginInto is aborted, its snapshot released.
func TestBeginIntoStartsClean(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)
	ix := tb.indexes["by_k"]
	for k := int64(1); k <= 3; k++ {
		if _, err := tb.Insert(kvRow(k, 10*k)); err != nil {
			t.Fatalf("seed Insert: %v", err)
		}
	}
	rid := func(k int64) storage.RID {
		t.Helper()
		r, found, err := ix.LookupRID(tuple.Int64(k))
		if err != nil || !found {
			t.Fatalf("LookupRID %d: found=%v err=%v", k, found, err)
		}
		return r
	}
	stage := func(tx *Txn, v int64) {
		t.Helper()
		var b Batch
		b.Insert(kvRow(100, v))
		b.Update(rid(1), kvRow(1, v))
		b.Delete(rid(2))
		if res, err := tx.Apply(tb, &b); err != nil || res.Applied != 3 {
			t.Fatalf("stage %d: %+v %v", v, res, err)
		}
	}
	want := func(state map[int64]int64) {
		t.Helper()
		if got := readAll(t)(tb.Query(WithIndex("by_k"))); len(got) != len(state) {
			t.Fatalf("rows %v, want %v", got, state)
		} else {
			for k, v := range state {
				if got[k] != v {
					t.Fatalf("rows %v, want %v", got, state)
				}
			}
		}
		if err := ix.Tree().CheckIntegrity(); err != nil {
			t.Fatalf("CheckIntegrity: %v", err)
		}
	}

	var tx Txn
	// An aborted transaction stages key 100, target 1 and target 2...
	e.BeginInto(&tx)
	stage(&tx, 1)
	tx.Abort()
	// ...and the next one in the same Txn stages them all again and commits.
	e.BeginInto(&tx)
	stage(&tx, 2)
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	want(map[int64]int64{1: 2, 3: 30, 100: 2})

	// That commit logged its index mutations for undo. A commit in the
	// recycled Txn that fails at its last landing step rolls back its own
	// mutations and none of those.
	e.BeginInto(&tx)
	var b Batch
	b.Insert(kvRow(200, 3))
	b.Update(rid(100), kvRow(100, 3))
	if _, err := tx.Apply(tb, &b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	entries := ix.Tree().Len()
	TestingFailCommitAfter(3) // the heap run's two records, then the index run
	defer TestingFailCommitAfter(0)
	if err := tx.Commit(); !errors.Is(err, errInjectedCommitFailure) {
		t.Fatalf("Commit = %v, want the injected failure", err)
	}
	want(map[int64]int64{1: 2, 3: 30, 100: 2})
	if got := ix.Tree().Len(); got != entries {
		t.Fatalf("the index holds %d entries after the rollback, want %d", got, entries)
	}

	// An open Txn handed to BeginInto is aborted first: what it staged
	// never lands, and only the new transaction's snapshot stays open.
	e.BeginInto(&tx)
	b.Reset()
	b.Insert(kvRow(300, 4))
	if _, err := tx.Apply(tb, &b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	e.BeginInto(&tx)
	if n := len(e.snaps); n != 1 {
		t.Fatalf("%d snapshots open, want 1", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	want(map[int64]int64{1: 2, 3: 30, 100: 2})
	if n := len(e.snaps); n != 0 {
		t.Fatalf("%d snapshots open after the last commit, want 0", n)
	}
}
