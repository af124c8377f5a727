package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// The write path has three entry points — one-row Insert/Update/Delete,
// a multi-op Apply, and Begin → Txn.Apply → Commit — and one pipeline
// behind them. TestWritePathDifferential drives the same logical op
// streams through each entry point on its own engine and checks every
// outcome and the final contents against an in-memory model.

// lop is one logical op: rows are named by their unique id, which each
// driver resolves to a RID in its own engine when the chunk starts.
type lop struct {
	kind  BatchOpKind
	id    int64 // insert: the new key; update/delete: the target's key
	newID int64 // update: the key afterwards (== id when it stays)
	a     int64 // insert/update: the new value
}

// writeModel is id → a.
type writeModel map[int64]int64

// apply plays one op with the raw entry points' semantics — it lands or
// fails on its own — and reports whether it lands.
func (m writeModel) apply(op lop) bool {
	_, live := m[op.id]
	switch op.kind {
	case BatchInsert:
		if live {
			return false
		}
		m[op.id] = op.a
	case BatchUpdate:
		if !live {
			return false
		}
		delete(m, op.id)
		m[op.newID] = op.a
	case BatchDelete:
		if !live {
			return false
		}
		delete(m, op.id)
	}
	return true
}

// applyTxn plays a chunk with a transaction's semantics — all or
// nothing, judged as a set: a missing target, two claims of one key, or
// a claim of a live key no op of the chunk frees rejects the whole
// chunk, wherever in it the ops sit.
func (m writeModel) applyTxn(chunk []lop) bool {
	claimed, freed := map[int64]bool{}, map[int64]bool{}
	for _, op := range chunk {
		if _, live := m[op.id]; op.kind != BatchInsert && !live {
			return false
		}
		key, claims := op.id, op.kind == BatchInsert
		if op.kind == BatchUpdate && op.newID != op.id {
			key, claims = op.newID, true
		}
		if claims {
			if claimed[key] {
				return false
			}
			claimed[key] = true
		}
		if op.kind == BatchDelete || (op.kind == BatchUpdate && op.newID != op.id) {
			freed[op.id] = true
		}
	}
	for key := range claimed {
		if _, live := m[key]; live && !freed[key] {
			return false
		}
	}
	for _, op := range chunk {
		if op.kind != BatchInsert {
			delete(m, op.id)
		}
	}
	for _, op := range chunk {
		if op.kind != BatchDelete {
			key := op.id
			if op.kind == BatchUpdate {
				key = op.newID
			}
			m[key] = op.a
		}
	}
	return true
}

// bulkStream is the 200-row equivalence workload: one 200-insert chunk,
// then every other row updated in place plus the last row deleted.
func bulkStream() [][]lop {
	var ins, upd []lop
	for i := int64(0); i < 200; i++ {
		ins = append(ins, lop{kind: BatchInsert, id: i, a: i})
		if i%2 == 0 {
			upd = append(upd, lop{kind: BatchUpdate, id: i, newID: i, a: i + 1})
		}
	}
	upd = append(upd, lop{kind: BatchDelete, id: 199})
	return [][]lop{ins, upd}
}

// attributionStream is the per-op isolation workload: a duplicate key,
// a dead update target and a dead delete target, each between ops that
// must still land (or, in a transaction, sink the chunk).
func attributionStream() [][]lop {
	return [][]lop{
		{{kind: BatchInsert, id: 7, a: 70}},
		{
			{kind: BatchInsert, id: 1, a: 10},
			{kind: BatchInsert, id: 7, a: 71}, // duplicate
			{kind: BatchInsert, id: 2, a: 20},
			{kind: BatchUpdate, id: 900, newID: 900, a: 1}, // dead target
			{kind: BatchInsert, id: 3, a: 30},
			{kind: BatchDelete, id: 901}, // dead target
			{kind: BatchInsert, id: 4, a: 40},
		},
		{
			{kind: BatchUpdate, id: 1, newID: 1, a: 11},
			{kind: BatchDelete, id: 2},
			{kind: BatchUpdate, id: 3, newID: 33, a: 31},
		},
	}
}

// randomStream generates chunks of inserts, updates with and without
// key moves, deletes, duplicate keys and missing targets. Within one
// chunk every row is targeted at most once and a duplicate insert's
// holder is left alone (the Batch rules); a moved row's new key is one
// no row holds at that point of the stream.
func randomStream(seed int64) [][]lop {
	rng := rand.New(rand.NewSource(seed))
	const ids = 256 // roomy: duplicates are generated on purpose, not by luck
	g := writeModel{}
	next := int64(0)
	val := func() int64 { next++; return next }
	var stream [][]lop
	for c := 0; c < 40; c++ {
		var free []int64 // live when the chunk starts, not yet touched by it
		for id := range g {
			free = append(free, id)
		}
		slices.Sort(free) // the rng picks, not the map order
		take := func() (int64, bool) {
			if len(free) == 0 {
				return 0, false
			}
			i := rng.Intn(len(free))
			id := free[i]
			free = slices.Delete(free, i, i+1)
			return id, true
		}
		absent := func() int64 {
			for {
				if id := rng.Int63n(ids); !hasKey(g, id) {
					return id
				}
			}
		}
		var chunk []lop
		for n := 1 + rng.Intn(8); n > 0; n-- {
			var op lop
			switch r := rng.Intn(100); {
			case r < 35:
				op = lop{kind: BatchInsert, id: absent(), a: val()}
			case r < 45:
				id, ok := take()
				if !ok {
					continue
				}
				op = lop{kind: BatchInsert, id: id, a: val()} // duplicate
			case r < 70:
				id, ok := take()
				if !ok {
					continue
				}
				op = lop{kind: BatchUpdate, id: id, newID: id, a: val()}
				if rng.Intn(2) == 0 {
					op.newID = absent()
				}
			case r < 85:
				id, ok := take()
				if !ok {
					continue
				}
				op = lop{kind: BatchDelete, id: id}
			case r < 93:
				op = lop{kind: BatchUpdate, id: 1000 + rng.Int63n(8), a: val()}
				op.newID = op.id
			default:
				op = lop{kind: BatchDelete, id: 1000 + rng.Int63n(8)}
			}
			g.apply(op)
			chunk = append(chunk, op)
		}
		if len(chunk) > 0 {
			stream = append(stream, chunk)
		}
	}
	return stream
}

func hasKey(m writeModel, id int64) bool { _, ok := m[id]; return ok }

// writeDriver is one entry point under test: it applies a chunk to tb
// and keeps m in step, failing the test on any outcome m did not
// predict.
type writeDriver struct {
	name string
	run  func(t *testing.T, e *Engine, tb *Table, m writeModel, chunk []lop)
}

// resolve turns a chunk into a Batch against tb's current contents. A
// target key no live row holds resolves to a RID that does not exist.
func resolve(t *testing.T, tb *Table, chunk []lop) *Batch {
	t.Helper()
	ix := tb.indexes["by_id"]
	var b Batch
	for _, op := range chunk {
		rid := storage.RID{Page: 9999}
		if op.kind != BatchInsert {
			if r, found, err := ix.LookupRID(tuple.Int64(op.id)); err != nil {
				t.Fatalf("LookupRID %d: %v", op.id, err)
			} else if found {
				rid = r
			}
		}
		switch op.kind {
		case BatchInsert:
			b.Insert(fixedRow(op.id, op.a))
		case BatchUpdate:
			b.Update(rid, fixedRow(op.newID, op.a))
		case BatchDelete:
			b.Delete(rid)
		}
	}
	return &b
}

var writeDrivers = []writeDriver{
	{"one-op", func(t *testing.T, _ *Engine, tb *Table, m writeModel, chunk []lop) {
		for _, op := range chunk {
			b := resolve(t, tb, []lop{op})
			var err error
			switch op.kind {
			case BatchInsert:
				_, err = tb.Insert(b.ops[0].row)
			case BatchUpdate:
				_, err = tb.Update(b.ops[0].rid, b.ops[0].row)
			case BatchDelete:
				err = tb.Delete(b.ops[0].rid)
			}
			if want := m.apply(op); (err == nil) != want {
				t.Fatalf("%+v: err = %v, model says lands=%v", op, err, want)
			}
		}
	}},
	{"isolated-apply", func(t *testing.T, _ *Engine, tb *Table, m writeModel, chunk []lop) {
		res, err := tb.Apply(resolve(t, tb, chunk), WithErrorIsolation(), WithResultRIDs())
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		applied := 0
		for i, op := range chunk {
			want := m.apply(op)
			if (res.OpErrs[i] == nil) != want {
				t.Fatalf("op %d %+v: err = %v, model says lands=%v", i, op, res.OpErrs[i], want)
			}
			if want {
				applied++
			}
		}
		if res.Applied != applied {
			t.Fatalf("Applied = %d, model says %d", res.Applied, applied)
		}
	}},
	{"txn", func(t *testing.T, e *Engine, tb *Table, m writeModel, chunk []lop) {
		tx := e.Begin()
		_, err := tx.Apply(tb, resolve(t, tb, chunk))
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		if want := m.applyTxn(chunk); (err == nil) != want {
			t.Fatalf("chunk %+v: err = %v, model says commits=%v", chunk, err, want)
		}
	}},
}

// verifyWritePath checks tb against m through both indexes and both
// cache policies, then every tree's integrity and the pool's pins.
func verifyWritePath(t *testing.T, when string, e *Engine, m writeModel) {
	t.Helper()
	tb, err := e.Table("t")
	if err != nil {
		t.Fatalf("%s: %v", when, err)
	}
	byID := tb.indexes["by_id"]
	for _, q := range []struct {
		name string
		opts []QueryOption
	}{
		{"by_id cache-first", []QueryOption{WithIndex("by_id"), WithProjection("id", "a", "b")}},
		{"by_id heap-only", []QueryOption{WithIndex("by_id"), WithCachePolicy(HeapOnly)}},
		{"by_a", []QueryOption{WithIndex("by_a")}},
	} {
		cur, err := tb.Query(q.opts...)
		if err != nil {
			t.Fatalf("%s: %s: %v", when, q.name, err)
		}
		got := writeModel{}
		for cur.Next() {
			row := cur.Row()
			if !checkInvariant(row) {
				t.Fatalf("%s: %s: torn row %v", when, q.name, row)
			}
			// A failed duplicate insert leaves an orphaned heap row that
			// indexes maintained before the collision still point at;
			// a row is live when the unique index resolves its key to it.
			if rid, found, err := byID.LookupRID(row[0]); err != nil || !found || rid != cur.RID() {
				continue
			}
			got[row[0].Int] = row[1].Int
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("%s: %s: %v", when, q.name, err)
		}
		if len(got) != len(m) {
			t.Errorf("%s: %s: %d rows, model has %d", when, q.name, len(got), len(m))
		}
		for id, a := range m {
			if ga, ok := got[id]; !ok || ga != a {
				t.Errorf("%s: %s: id %d: a=%d present=%v, model a=%d", when, q.name, id, ga, ok, a)
			}
		}
	}
	for name, ix := range tb.indexes {
		if err := ix.Tree().CheckIntegrity(); err != nil {
			t.Errorf("%s: CheckIntegrity %s: %v", when, name, err)
		}
	}
	if n := e.Pool().PinnedFrames(); n != 0 {
		t.Errorf("%s: %d frames still pinned", when, n)
	}
}

func TestWritePathDifferential(t *testing.T) {
	streams := []struct {
		name   string
		chunks [][]lop
	}{
		{"bulk200", bulkStream()},
		{"attribution", attributionStream()},
	}
	for seed := int64(1); seed <= 3; seed++ {
		streams = append(streams, struct {
			name   string
			chunks [][]lop
		}{fmt.Sprintf("random%d", seed), randomStream(seed)})
	}
	for _, s := range streams {
		for _, d := range writeDrivers {
			t.Run(s.name+"/"+d.name, func(t *testing.T) {
				dir := t.TempDir()
				opts := Options{PageSize: 1024, BufferPoolPages: 512, Path: filepath.Join(dir, "db"),
					WAL: true, SyncPolicy: SyncNone}
				e, err := NewEngine(opts)
				if err != nil {
					t.Fatalf("NewEngine: %v", err)
				}
				tb, err := e.CreateTable("t", fixedSchema())
				if err != nil {
					t.Fatalf("CreateTable: %v", err)
				}
				if _, err := tb.CreateIndex("by_id", []string{"id"}, WithCache("a", "b")); err != nil {
					t.Fatalf("CreateIndex: %v", err)
				}
				if _, err := tb.CreateIndex("by_a", []string{"a"}, NonUnique()); err != nil {
					t.Fatalf("CreateIndex: %v", err)
				}
				m := writeModel{}
				for _, chunk := range s.chunks {
					d.run(t, e, tb, m, chunk)
				}
				verifyWritePath(t, "live", e, m)

				// Crash recovery: a copy of the files as they stand — no
				// checkpoint since creation — reopens by WAL redo alone.
				crash := filepath.Join(dir, "crash")
				if err := os.Mkdir(crash, 0o755); err != nil {
					t.Fatal(err)
				}
				files, _ := filepath.Glob(opts.Path + "*")
				for _, f := range files {
					data, err := os.ReadFile(f)
					if err == nil {
						err = os.WriteFile(filepath.Join(crash, filepath.Base(f)), data, 0o644)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				copts := opts
				copts.Path = filepath.Join(crash, "db")
				ce, err := NewEngine(copts)
				if err != nil {
					t.Fatalf("recovering the copy: %v", err)
				}
				verifyWritePath(t, "after redo", ce, m)
				if err := ce.Close(); err != nil {
					t.Fatalf("closing the copy: %v", err)
				}

				// Clean close (checkpoint) → reopen.
				if err := e.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				re, err := NewEngine(opts)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				verifyWritePath(t, "after reopen", re, m)
				if err := re.Close(); err != nil {
					t.Fatalf("closing the reopened engine: %v", err)
				}
			})
		}
	}
}
