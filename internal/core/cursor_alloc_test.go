//go:build !race

package core

import (
	"testing"

	"repro/internal/tuple"
)

// TestOneRowQueryIsOneAllocation: a one-row index query — the served
// benchmark's covered point read — costs its Cursor and nothing else.
// The options, the source with its resolver and btree cursor, the
// encoded bounds and the row scratch all live inside it; before they
// did, the two queries here cost 12 and 11 allocations. The snapshot
// read of a transaction takes the heap tier (it bypasses the cache),
// whose record and row scratch are inline too. A Cursor reopened by
// QueryInto — the server keeps one per pooled request — costs nothing,
// and so does a warm LookupInto, whose point cursor is pooled. (Not
// under -race: the detector changes allocation counts.)
func TestOneRowQueryIsOneAllocation(t *testing.T) {
	const rows = 2000
	e, tb, ix := newQueryFixture(t, rows, true)
	if _, err := ix.WarmCache(); err != nil {
		t.Fatalf("WarmCache: %v", err)
	}
	covered := []string{"id", "a", "b"}
	var id int64
	read := func(query func(id int64) (*Cursor, error), wantHit bool) func() {
		return func() {
			id = (id*31 + 7) % rows
			cur, err := query(id)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			if !cur.Next() {
				t.Fatalf("id %d: no row: %v", id, cur.Err())
			}
			if r := cur.Row(); r[0].Int != id || r[1].Int != 3*id || r[2].Int != id%97 {
				t.Fatalf("id %d: row %v", id, r)
			}
			if st := cur.Stats(); (st.CacheHits == 1) != wantHit {
				t.Fatalf("id %d: %+v, want cache hit %v", id, st, wantHit)
			}
			cur.Close()
		}
	}
	tx := e.Begin()
	defer tx.Abort()
	var (
		cur Cursor
		dst tuple.Row
	)
	cases := []struct {
		name   string
		budget float64
		op     func()
	}{
		{"Table.Query", 1, read(func(id int64) (*Cursor, error) {
			return tb.Query(WithIndex("by_id"), WithPrefix(tuple.Int64(id)), WithProjection(covered...), WithLimit(1))
		}, true)},
		{"Txn.Query", 1, read(func(id int64) (*Cursor, error) {
			return tx.Query(tb, WithIndex("by_id"), WithPrefix(tuple.Int64(id)), WithProjection(covered...))
		}, false)},
		{"Table.QueryInto", 0, read(func(id int64) (*Cursor, error) {
			return &cur, tb.QueryInto(&cur, WithIndex("by_id"), WithPrefix(tuple.Int64(id)), WithProjection(covered...), WithLimit(1))
		}, true)},
		{"Txn.QueryInto", 0, read(func(id int64) (*Cursor, error) {
			return &cur, tx.QueryInto(&cur, tb, WithIndex("by_id"), WithPrefix(tuple.Int64(id)), WithProjection(covered...))
		}, false)},
		{"Index.LookupInto", 0, func() {
			id = (id*31 + 7) % rows
			row, res, err := ix.LookupInto(dst, covered, tuple.Int64(id))
			if err != nil || !res.CacheHit || row[0].Int != id || row[1].Int != 3*id || row[2].Int != id%97 {
				t.Fatalf("id %d: %v %+v %v, want a cache hit", id, row, res, err)
			}
			dst = row
		}},
	}
	for _, tc := range cases {
		tc.op() // warm the plan cache
		if got := testing.AllocsPerRun(200, tc.op); got > tc.budget {
			t.Errorf("%s: %.1f allocs per one-row query, want ≤ %.0f", tc.name, got, tc.budget)
		}
	}
}
