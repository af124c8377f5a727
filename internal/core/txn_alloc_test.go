//go:build !race

package core

import (
	"testing"

	"repro/internal/tuple"
)

// TestTxnAllocations: the served benchmark's transaction — a snapshot
// read of two rows, both updated, one commit — costs what its
// snapshot, its cursor and its first staged batch need, because the
// Txn owns its stage: tables, staged ops, claim sets, keys, records,
// pre-images and undo log all live in it and grow only past the
// inline sizes. Before it did, the same transaction measured 35. A Txn
// recycled through BeginInto and a Cursor reopened through QueryInto
// cost nothing of that: the stage keeps its capacity from one
// transaction to the next, and the server runs its transactions so.
// The Begin/Query budget is the measured figure + 2; the recycled one,
// measured 0, is held to 1. Both include the amortised share of the GC
// passes the dead versions trigger. (Not under -race: the detector
// changes allocation counts.)
func TestTxnAllocations(t *testing.T) {
	const rows = 2000
	e, tb, _ := newQueryFixture(t, rows, true)
	lo, hi := []tuple.Value{tuple.Int64(10)}, []tuple.Value{tuple.Int64(12)}
	covered := []string{"id", "a", "b"}
	// The two versions of ids 10 and 11 the transaction moves between.
	versions := [2][2]tuple.Row{{intRow(10), intRow(11)}, {intRow(10), intRow(11)}}
	for _, r := range versions[1] {
		r[1] = tuple.Int64(r[1].Int + 1)
	}
	ver := 0
	var b Batch
	run := func(tx *Txn, cur *Cursor) {
		ver ^= 1
		b.Reset()
		for i := 0; cur.Next(); i++ {
			if id := cur.Row()[0].Int; id != int64(10+i) {
				t.Fatalf("snapshot read id %d, want %d", id, 10+i)
			}
			b.Update(cur.RID(), versions[ver][i])
		}
		if err := cur.Err(); err != nil {
			t.Fatalf("cursor: %v", err)
		}
		cur.Close()
		if res, err := tx.Apply(tb, &b); err != nil || res.Applied != 2 {
			t.Fatalf("Apply: %+v %v", res, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	var (
		tx  Txn
		cur Cursor
	)
	cases := []struct {
		name   string
		budget float64
		txn    func()
	}{
		{"Begin/Query", 8, func() {
			tx := e.Begin()
			cur, err := tx.Query(tb, WithIndex("by_id"), WithKeyRange(lo, hi), WithProjection(covered...))
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			run(tx, cur)
		}},
		{"BeginInto/QueryInto", 1, func() {
			e.BeginInto(&tx)
			if err := tx.QueryInto(&cur, tb, WithIndex("by_id"), WithKeyRange(lo, hi), WithProjection(covered...)); err != nil {
				t.Fatalf("QueryInto: %v", err)
			}
			run(&tx, &cur)
		}},
	}
	for _, tc := range cases {
		for i := 0; i < 200; i++ { // warm the pools, the plan cache and the recycled stage
			tc.txn()
		}
		got := testing.AllocsPerRun(500, tc.txn)
		t.Logf("%-20s %.1f allocs/op (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: %.1f allocs/op, budget %.0f", tc.name, got, tc.budget)
		}
	}
}
