package core

import (
	"errors"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"repro/internal/tuple"
)

// A raw Apply's op fails alone, and leaves nothing behind: the tests
// below apply [Insert(50), Insert(7)] over a table that already holds
// id 7, with a unique by_id and a non-unique by_a. Which index a trip
// maintains first is map order, so each runs on many fresh engines.

const dupEngines = 20

// dupFixture returns a logged engine and its table t holding id 7.
func dupFixture(t *testing.T) (Options, *Engine, *Table) {
	t.Helper()
	opts := Options{PageSize: 1024, BufferPoolPages: 128, Path: filepath.Join(t.TempDir(), "db"), WAL: true}
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	tb, err := e.CreateTable("t", fixedSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tb.CreateIndex("by_id", []string{"id"}); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if _, err := tb.CreateIndex("by_a", []string{"a"}, NonUnique()); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if _, err := tb.Insert(fixedRow(7, 70)); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	return opts, e, tb
}

// applyGoodAndDup applies a good insert (id 50, a 500) and a duplicate
// of id 7 (a 777) in one batch.
func applyGoodAndDup(tb *Table) (Result, error) {
	var b Batch
	b.Insert(fixedRow(50, 500)).Insert(fixedRow(7, 777))
	return tb.Apply(&b, WithResultRIDs())
}

// reopenFromLog stops e without a checkpoint and reopens it, so the
// reopened table is what replaying the log rebuilds.
func reopenFromLog(t *testing.T, opts Options, e *Engine) (*Engine, *Table) {
	t.Helper()
	_ = e.pool.Close()
	_ = e.Close()
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	tb, err := e.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	return e, tb
}

// pairs returns the (id, a) of every row the query serves, sorted.
func pairs(t *testing.T, tb *Table, opts ...QueryOption) [][2]int64 {
	t.Helper()
	cur, err := tb.Query(opts...)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var out [][2]int64
	for cur.Next() {
		out = append(out, [2]int64{cur.Row()[0].Int, cur.Row()[1].Int})
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	slices.SortFunc(out, func(x, y [2]int64) int { return int(x[0] - y[0]) })
	return out
}

// checkGoodAndDup checks that tb holds exactly ids 7 (a 70) and 50
// (a 500) through a heap scan and both indexes, and counts two rows.
func checkGoodAndDup(t *testing.T, when string, tb *Table) {
	t.Helper()
	want := [][2]int64{{7, 70}, {50, 500}}
	for _, q := range []struct {
		name string
		opts []QueryOption
	}{
		{"heap scan", nil},
		{"by_id", []QueryOption{WithIndex("by_id")}},
		{"by_a", []QueryOption{WithIndex("by_a")}},
	} {
		if got := pairs(t, tb, q.opts...); !slices.Equal(got, want) {
			t.Errorf("%s: %s serves %v, want %v", when, q.name, got, want)
		}
	}
	if n := tb.Rows(); n != 2 {
		t.Errorf("%s: Rows = %d, want 2", when, n)
	}
}

// TestFailedInsertLeavesNoRow: the duplicate's row landed in the heap
// before its collision, and maybe in by_a too; neither the row nor the
// entry outlives the op, live or after a replay of the log.
func TestFailedInsertLeavesNoRow(t *testing.T) {
	for range dupEngines {
		opts, e, tb := dupFixture(t)
		res, _ := applyGoodAndDup(tb)
		if res.RIDs[1].Valid() {
			t.Errorf("the failed duplicate reports RID %v", res.RIDs[1])
		}
		checkGoodAndDup(t, "live", tb)
		_, tb = reopenFromLog(t, opts, e)
		checkGoodAndDup(t, "after the replay", tb)
		if t.Failed() {
			return
		}
	}
}

// TestDuplicateLeavesGoodOpWhole: the good op of a batch whose other op
// is a duplicate is in every index, whichever ran first, and the result
// says so: one op applied, op 1 failed, and Apply returns its error.
func TestDuplicateLeavesGoodOpWhole(t *testing.T) {
	for range dupEngines {
		opts, e, tb := dupFixture(t)
		res, err := applyGoodAndDup(tb)
		if err == nil || res.Applied != 1 || res.ErrIndex != 1 || err != opErr(res, 1) {
			t.Errorf("Apply = %v: Applied %d, ErrIndex %d, OpErrs %v; want op 1 failed alone", err, res.Applied, res.ErrIndex, res.OpErrs)
		}
		for _, when := range []string{"live", "after the replay"} {
			if when != "live" {
				_, tb = reopenFromLog(t, opts, e)
			}
			if got := pairs(t, tb, WithIndex("by_a"), WithPrefix(tuple.Int64(500))); len(got) != 1 {
				t.Errorf("%s: by_a serves %v for a = 500, want id 50", when, got)
			}
			if got := pairs(t, tb, WithIndex("by_id"), WithPrefix(tuple.Int64(50))); len(got) != 1 {
				t.Errorf("%s: by_id serves %v for id 50, want it", when, got)
			}
		}
		if t.Failed() {
			return
		}
	}
}

// TestFailedSyncFailsEveryOp: the fsync a batch's record waits for
// fails, and no op of the batch is reported applied — an acked op the
// failed fsync may have dropped is the loss Rebello et al. ("Can
// Applications Recover from fsync Failures?", USENIX ATC 2020) show.
func TestFailedSyncFailsEveryOp(t *testing.T) {
	opts := walTestOptions(t.TempDir())
	opts.SyncPolicy = SyncGroupCommit
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tb := kvTable(t, e)
	e.wal.FailSync(syscall.EIO)
	var b Batch
	b.Insert(kvRow(1, 10)).Insert(kvRow(2, 20))
	res, err := tb.Apply(&b)
	if !errors.Is(err, syscall.EIO) || res.ErrIndex != -1 {
		t.Errorf("Apply = %v (ErrIndex %d), want the fsync's EIO as the batch's error", err, res.ErrIndex)
	}
	if res.Applied != 0 {
		t.Errorf("Applied = %d, want 0", res.Applied)
	}
	for i := range b.Len() {
		if err := opErr(res, i); !errors.Is(err, syscall.EIO) {
			t.Errorf("op %d: %v, want the fsync's EIO", i, err)
		}
	}
}
