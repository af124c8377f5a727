package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// --- one read path: the differential ------------------------------------

// readCase is one row of TestReadPathDifferential: a read described
// once, answered by every index read path.
type readCase struct {
	name    string
	index   string   // by_id (unique, caches a+b) | plain (unique) | by_b (non-unique)
	project []string // nil = every field
	filters []Filter
	lo, hi  int64 // bounds on the index's key field; -1 = open
	snap    bool  // read at the pinned snapshot instead of latest
	policy  CachePolicy
}

// readFixture is the seeded table and its model: the rows a latest read
// sees and the rows the pinned snapshot sees.
type readFixture struct {
	t            *testing.T
	tb           *Table
	snapTx       *Txn
	latest, snap map[int64]tuple.Row
}

// newReadFixture loads 1200 rows (ids 0, 2, 4, ...), builds the three
// indexes, pins a snapshot, then commits transactions that update every
// 7th row (a and b change — key moves in by_b), delete every 11th and
// insert 46 odd ids spread over the range (no leaf gains more than a
// few keys, so none splits), so unique entries lead to superseded
// versions and by_b holds entries of both generations. The cache is
// warmed last: every latest-state entry of by_id is then a hit.
func newReadFixture(t *testing.T) *readFixture {
	t.Helper()
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 4096})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	tb, err := e.CreateTable("t", intSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	f := &readFixture{t: t, tb: tb, latest: map[int64]tuple.Row{}, snap: map[int64]tuple.Row{}}
	const base = 1200
	for i := 0; i < base; i++ {
		if _, err := tb.Insert(intRow(2 * i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		f.latest[int64(2*i)], f.snap[int64(2*i)] = intRow(2*i), intRow(2*i)
	}
	// 0.3 leaves every key's payload room in the cache (see newQueryFixture).
	byID, err := tb.CreateIndex("by_id", []string{"id"}, WithCache("a", "b"), WithFillFactor(0.3))
	if err != nil {
		t.Fatalf("CreateIndex by_id: %v", err)
	}
	if _, err := tb.CreateIndex("plain", []string{"id"}); err != nil {
		t.Fatalf("CreateIndex plain: %v", err)
	}
	if _, err := tb.CreateIndex("by_b", []string{"b"}, NonUnique()); err != nil {
		t.Fatalf("CreateIndex by_b: %v", err)
	}
	f.snapTx = e.Begin()
	t.Cleanup(f.snapTx.Abort)
	for lo := 0; lo < base; lo += 100 { // one transaction per hundred ids
		tx := e.Begin()
		var b Batch
		for i := lo; i < lo+100; i++ {
			id := 2 * i
			rid, ok, err := byID.LookupRID(tuple.Int64(int64(id)))
			if err != nil || !ok {
				t.Fatalf("LookupRID %d: %v %v", id, ok, err)
			}
			switch {
			case i%11 == 0:
				b.Delete(rid)
				delete(f.latest, int64(id))
			case i%7 == 0:
				row := intRow(id)
				row[1], row[2] = tuple.Int64(int64(id*3+1000)), tuple.Int32(int32((id+5)%97))
				b.Update(rid, row)
				f.latest[int64(id)] = row
			case i%20 == 3:
				b.Insert(intRow(id + 1))
				f.latest[int64(id+1)] = intRow(id + 1)
			}
		}
		if _, err := tx.Apply(tb, &b); err != nil {
			t.Fatalf("txn Apply: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	if _, err := byID.WarmCache(); err != nil {
		t.Fatalf("WarmCache: %v", err)
	}
	return f
}

// keyOf is the value of the case's index key field in row.
func (c *readCase) keyOf(row tuple.Row) int64 {
	if c.index == "by_b" {
		return row[2].Int
	}
	return row[0].Int
}

func (c *readCase) bound(v int64) []tuple.Value {
	switch {
	case v < 0:
		return nil
	case c.index == "by_b":
		return []tuple.Value{tuple.Int32(int32(v))}
	}
	return []tuple.Value{tuple.Int64(v)}
}

func (c *readCase) opts(extra ...QueryOption) []QueryOption {
	o := []QueryOption{WithIndex(c.index), WithKeyRange(c.bound(c.lo), c.bound(c.hi)), WithCachePolicy(c.policy)}
	if c.project != nil {
		o = append(o, WithProjection(c.project...))
	}
	if len(c.filters) > 0 {
		o = append(o, WithFilter(c.filters...))
	}
	return append(o, extra...)
}

// readWant is what the model says a case must produce.
type readWant struct {
	rows            []tuple.Row // projected, in index order (ties by id)
	full            []tuple.Row // the same rows, unprojected
	cacheHits, heap int64       // tier counters with every by_id entry cached
}

// want answers c from the model, tier counters included: with the whole
// cache warm an entry's tier is a function of the case alone.
func (f *readFixture) want(c *readCase) readWant {
	schema := f.tb.schema
	model := f.latest
	if c.snap {
		model = f.snap
	}
	cached := map[string]bool{"a": c.index == "by_id", "b": c.index == "by_id"}
	key := map[string]bool{"id": c.index != "by_b", "b": c.index == "by_b"}
	tierOf := func(field string) int { // 0 key, 1 cached, 2 heap
		switch {
		case key[field]:
			return 0
		case cached[field]:
			return 1
		}
		return 2
	}
	coverable, cachedFilter, heapFilter := true, false, false
	for _, name := range c.project {
		coverable = coverable && tierOf(name) < 2
	}
	if c.project == nil {
		coverable = false // blob is neither key nor cached
	}
	for _, flt := range c.filters {
		cachedFilter = cachedFilter || tierOf(flt.Field) == 1
		heapFilter = heapFilter || tierOf(flt.Field) == 2
	}
	probe := c.index == "by_id" && !c.snap && c.policy == CacheFirst && (coverable || cachedFilter)
	var w readWant
	for _, row := range model {
		if k := c.keyOf(row); (c.lo >= 0 && k < c.lo) || (c.hi >= 0 && k >= c.hi) {
			continue
		}
		pass := [3]bool{true, true, true}
		for _, flt := range c.filters {
			if !cmpMatch(row[schema.Index(flt.Field)], flt.Op, flt.Value) {
				pass[tierOf(flt.Field)] = false
			}
		}
		switch {
		case !pass[0]: // rejected on key bytes: no tier touched
		case !probe:
			w.heap++
		case !pass[1]: // rejected on the cached payload
		case coverable && !heapFilter:
			w.cacheHits++
		default:
			w.heap++
		}
		if pass[0] && pass[1] && pass[2] {
			w.full = append(w.full, row)
		}
	}
	sort.Slice(w.full, func(i, j int) bool {
		if ki, kj := c.keyOf(w.full[i]), c.keyOf(w.full[j]); ki != kj {
			return ki < kj
		}
		return w.full[i][0].Int < w.full[j][0].Int
	})
	for _, row := range w.full {
		w.rows = append(w.rows, projectModel(schema, row, c.project))
	}
	return w
}

// projectModel projects a full model row onto names (nil = all fields).
func projectModel(schema *tuple.Schema, row tuple.Row, names []string) tuple.Row {
	if names == nil {
		return row
	}
	out := make(tuple.Row, len(names))
	for i, name := range names {
		out[i] = row[schema.Index(name)]
	}
	return out
}

// drain runs one Query path of c and returns its rows with the key
// field's value beside each (the projection may drop it).
func (f *readFixture) drain(c *readCase, extra ...QueryOption) ([]tuple.Row, []int64, QueryStats) {
	f.t.Helper()
	var cur *Cursor
	var err error
	if c.snap {
		cur, err = f.snapTx.Query(f.tb, c.opts(extra...)...)
	} else {
		cur, err = f.tb.Query(c.opts(extra...)...)
	}
	if err != nil {
		f.t.Fatalf("%s: Query: %v", c.name, err)
	}
	var rows []tuple.Row
	var keys []int64
	for cur.Next() {
		rows = append(rows, cur.Row().Clone())
		kv, err := tuple.DecodeKey(cur.Key(), f.tb.indexes[c.index].keyKinds...)
		if err != nil {
			f.t.Fatalf("%s: DecodeKey: %v", c.name, err)
		}
		keys = append(keys, kv[0].Int)
	}
	if err := cur.Err(); err != nil {
		f.t.Fatalf("%s: cursor: %v", c.name, err)
	}
	stats := cur.Stats()
	cur.Close()
	return rows, keys, stats
}

func rowKey(r tuple.Row) string { return fmt.Sprint(r) }

// sameRows compares got with want as multisets and, when the path
// promises an order, checks the keys run that way (rows of equal key —
// the non-unique index orders those by RID, which the model does not
// know — may come in any order).
func sameRows(got, want []tuple.Row, gotKeys []int64, ordered, reverse bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	count := map[string]int{}
	for i := range want {
		count[rowKey(want[i])]++
		count[rowKey(got[i])]--
	}
	for k, n := range count {
		if n != 0 {
			return fmt.Errorf("row %s: off by %d", k, -n)
		}
	}
	for i := 1; ordered && i < len(gotKeys); i++ {
		if (reverse && gotKeys[i] > gotKeys[i-1]) || (!reverse && gotKeys[i] < gotKeys[i-1]) {
			return fmt.Errorf("row %d out of key order (%d after %d)", i, gotKeys[i], gotKeys[i-1])
		}
	}
	return nil
}

// TestReadPathDifferential is the read-side twin of
// TestWritePathDifferential: every case is answered by every index read
// path — serial Query forward and reverse, WithParallel ordered and
// unordered, LookupInto and a point QueryInto per key — and all of them
// must agree with the
// in-memory model on the rows and on which tier answered how many
// entries. The per-path tests this table replaced are named on the rows
// that carry their assertions.
func TestReadPathDifferential(t *testing.T) {
	f := newReadFixture(t)
	i64, i32 := tuple.Int64, tuple.Int32
	covered := []string{"id", "a", "b"}
	cases := []readCase{
		// TestIndexQueryCacheFirstVsHeapOnly: warm + covered = all cache
		// hits; HeapOnly and an uncoverable projection = all heap.
		{name: "covered", index: "by_id", project: covered, lo: -1, hi: -1},
		{name: "covered-heaponly", index: "by_id", project: covered, lo: -1, hi: -1, policy: HeapOnly},
		{name: "uncoverable", index: "by_id", project: []string{"id", "blob"}, lo: -1, hi: -1},
		{name: "full-row", index: "by_id", lo: 100, hi: 300},
		// TestFilterKeyTier: rows rejected on key bytes touch no tier.
		{name: "key-filter", index: "by_id", project: []string{"id", "a"}, lo: -1, hi: -1,
			filters: []Filter{{"id", CmpGe, i64(500)}, {"id", CmpLt, i64(700)}}},
		// TestFilterCachedTier: a cached filter under a warm cache reads no heap.
		{name: "cached-filter", index: "by_id", project: []string{"id", "b"}, lo: -1, hi: -1,
			filters: []Filter{{"b", CmpEq, i32(13)}}},
		// TestFilterHeapTier: a heap filter fetches every key survivor; a
		// cached filter beside it still rejects before the heap.
		{name: "heap-filter", index: "by_id", lo: -1, hi: -1,
			filters: []Filter{{"blob", CmpEq, tuple.String("padding-padding-000124")}}},
		{name: "cached+heap-filter", index: "by_id", lo: -1, hi: -1,
			filters: []Filter{{"b", CmpLt, i32(10)}, {"blob", CmpNe, tuple.String("padding-padding-000004")}}},
		// TestParallelQueryWithFilters, TestParallelQueryBounded.
		{name: "cached+key-filter-bounded", index: "by_id", project: []string{"id", "b"}, lo: 713, hi: 1150,
			filters: []Filter{{"b", CmpLt, i32(30)}, {"id", CmpGe, i64(800)}}},
		{name: "empty", index: "by_id", project: covered, lo: 5000, hi: -1},
		{name: "plain", index: "plain", lo: 200, hi: 900, filters: []Filter{{"a", CmpGt, i64(900)}}},
		{name: "plain-projected", index: "plain", project: []string{"a", "id"}, lo: -1, hi: -1},
		{name: "non-unique", index: "by_b", project: []string{"b", "id"}, lo: 10, hi: 20},
		{name: "non-unique-filtered", index: "by_b", lo: -1, hi: 50, filters: []Filter{{"id", CmpLt, i64(600)}}},
		{name: "snapshot", index: "by_id", project: covered, lo: -1, hi: -1, snap: true},
		{name: "snapshot-plain-filtered", index: "plain", lo: 50, hi: 1000, snap: true,
			filters: []Filter{{"b", CmpGe, i32(40)}}},
		{name: "snapshot-non-unique", index: "by_b", lo: 0, hi: 30, snap: true},
	}
	for i := range cases {
		c := &cases[i]
		t.Run(c.name, func(t *testing.T) {
			f.t = t
			w := f.want(c)
			if len(w.rows) == 0 && c.name != "empty" {
				t.Fatal("case selects no rows: it tests nothing")
			}
			paths := []struct {
				name             string
				opts             []QueryOption
				ordered, reverse bool
			}{
				{"forward", nil, true, false},
				{"reverse", []QueryOption{WithReverse()}, true, true},
				{"parallel-ordered", []QueryOption{WithParallel(3)}, true, false},
				{"parallel-unordered", []QueryOption{WithParallel(3), WithMergeMode(MergeUnordered)}, false, false},
			}
			for _, p := range paths {
				rows, keys, stats := f.drain(c, p.opts...)
				if err := sameRows(rows, w.rows, keys, p.ordered, p.reverse); err != nil {
					t.Errorf("%s: %v", p.name, err)
				}
				if stats.Rows != int64(len(w.rows)) || stats.CacheHits != w.cacheHits || stats.HeapReads != w.heap {
					t.Errorf("%s: stats %+v, model says %d cache hits, %d heap reads", p.name, stats, w.cacheHits, w.heap)
				}
			}
		})
	}
	// Point lookups last: they fill the cache, which would move the tier
	// counters above.
	for i := range cases {
		if c := &cases[i]; !c.snap && c.index != "by_b" && len(c.filters) == 0 {
			t.Run("lookup/"+c.name, func(t *testing.T) {
				f.t = t
				f.checkLookups(c)
			})
		}
	}
	for _, ix := range f.tb.indexes {
		if err := ix.Tree().CheckIntegrity(); err != nil {
			t.Errorf("CheckIntegrity %s: %v", ix.name, err)
		}
	}
	f.snapTx.Abort()
	if n := f.tb.engine.Pool().PinnedFrames(); n != 0 {
		t.Errorf("%d frames left pinned", n)
	}
}

// checkLookups answers a scrambled key set — present, updated, deleted,
// inserted, never-existing and repeated keys — through LookupInto and a
// kept cursor's point QueryInto, against the model and against each
// other.
func (f *readFixture) checkLookups(c *readCase) {
	f.t.Helper()
	ix := f.tb.indexes[c.index]
	ids := []int64{2398, 0, 34, 36, 14, 28, 22, 44, 500, 9999, 7, 47, 2398, 9, 1554, 84, -5}
	w := f.want(&readCase{index: c.index, project: c.project, lo: -1, hi: -1})
	coverable := w.cacheHits > 0
	var (
		dst tuple.Row
		cur Cursor
	)
	for _, id := range ids {
		key := tuple.Int64(id)
		row, res, err := ix.LookupInto(dst, c.project, key)
		if err != nil {
			f.t.Fatalf("LookupInto %d: %v", id, err)
		}
		dst = row
		if err := f.tb.QueryInto(&cur, WithIndex(c.index), WithPrefix(key), WithProjection(c.project...)); err != nil {
			f.t.Fatalf("QueryInto %d: %v", id, err)
		}
		// The cursor's row is a view: it is compared before Close.
		found := cur.Next()
		model, live := f.latest[id]
		st := cur.Stats()
		switch {
		case res.Found != live || found != live:
			f.t.Errorf("id %d: Found = %v (LookupInto) / %v (QueryInto), model says %v", id, res.Found, found, live)
		case !live:
			if row != nil {
				f.t.Errorf("id %d: absent key returned a row", id)
			}
		default:
			want := projectModel(f.tb.schema, model, c.project)
			if !row.Equal(want) || !cur.Row().Equal(want) {
				f.t.Errorf("id %d: rows %v (LookupInto) / %v (QueryInto), model says %v", id, row, cur.Row(), want)
			}
			if res.RID != cur.RID() {
				f.t.Errorf("id %d: RID %v (LookupInto) vs %v (QueryInto)", id, res.RID, cur.RID())
			}
			// The cache is warm: a coverable projection is answered from the
			// leaf, anything else from the heap — by both paths alike, each
			// after one leaf.
			if res.CacheHit != coverable || res.HeapAccess == coverable {
				f.t.Errorf("id %d: LookupInto tiers %+v, want cache hit = %v", id, res, coverable)
			}
			if (st.CacheHits == 1) != coverable || (st.HeapReads == 1) == coverable || st.LeafFetches != 1 {
				f.t.Errorf("id %d: QueryInto stats %+v, want cache hit = %v after one leaf", id, st, coverable)
			}
		}
		if cur.Next() {
			f.t.Errorf("id %d: QueryInto served a second row %v", id, cur.Row())
		}
		if err := cur.Close(); err != nil {
			f.t.Errorf("id %d: QueryInto: %v", id, err)
		}
	}
}

// --- the stale-entry window ----------------------------------------------

// grownRow is intRow(id) with an n-byte blob.
func grownRow(id, n int) tuple.Row {
	row := intRow(id)
	row[3] = tuple.String(strings.Repeat("x", n))
	return row
}

// newStaleFixture is a table of rows 0..rows-1 on 1 KB pages, indexed
// by_id (unique, caching a and b). Every 7th row is wide: wide enough
// that the heap's approximate free-space maps find the slot it vacates
// when it moves.
func newStaleFixture(t *testing.T, rows int) (*Table, *Index) {
	t.Helper()
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 4096})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	tb, err := e.CreateTable("t", intSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	ix, err := tb.CreateIndex("by_id", []string{"id"}, WithCache("a", "b"))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	for i := 0; i < rows; i++ {
		row := intRow(i)
		if i%7 == 0 {
			row = grownRow(i, 300)
		}
		if _, err := tb.Insert(row); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	return tb, ix
}

// reuseSlot inserts rows of ids 1000 and up until one lands at rid, and
// reports whether one did.
func reuseSlot(tb *Table, rid storage.RID) (bool, error) {
	for i := 1000; i < 1400; i++ {
		got, err := tb.Insert(intRow(i))
		if err != nil || got == rid {
			return err == nil, err
		}
	}
	return false, nil
}

// TestLookupStaleEntryNotServed covers the entry a relocating update
// repoints (pipeline.run): the new copy is placed while the old one
// still serves, the entry moves to the new copy, and only then is the
// old copy freed — where an insert may reuse its slot for another key's
// row. A point lookup must serve the row at every step, and never
// another key's row; an entry copied before the repoint resolves stale
// once the slot is reused (stillIndexes), and a scan holding it re-seeks
// to the new copy. "staged" builds the steps by hand; "storm" lets real
// writers race real lookups.
func TestLookupStaleEntryNotServed(t *testing.T) {
	// check runs every point-lookup entry on key id and fails on a row of
	// another key or any error; it reports whether the key was found.
	check := func(t *testing.T, ix *Index, id int64) bool {
		key := []tuple.Value{tuple.Int64(id)}
		row, res, err := ix.LookupInto(nil, nil, key...)
		if err != nil {
			t.Errorf("LookupInto(%d): %v", id, err)
		}
		if res.Found && row[0].Int != id {
			t.Errorf("LookupInto(%d) served id %d", id, row[0].Int)
		}
		for _, k := range []int64{id, id + 1} {
			cur, err := ix.Query(WithPrefix(tuple.Int64(k)), WithProjection("id", "blob"))
			if err != nil {
				t.Errorf("Query(%d): %v", k, err)
				continue
			}
			if cur.Next() && cur.Row()[0].Int != k {
				t.Errorf("Query(%d) served id %d", k, cur.Row()[0].Int)
			}
			if err := cur.Close(); err != nil {
				t.Errorf("Query(%d): %v", k, err)
			}
		}
		return res.Found
	}
	// serves checks that a lookup of id answers the row at rid with an
	// n-byte blob.
	serves := func(t *testing.T, ix *Index, id int64, rid storage.RID, n int, step string) {
		t.Helper()
		if !check(t, ix, id) {
			t.Fatalf("%s: id %d reads as not-found", step, id)
		}
		row, res, err := ix.Lookup(nil, tuple.Int64(id))
		if err != nil || !res.Found || res.RID != rid || len(row[3].Str) != n {
			t.Fatalf("%s: row %v, result %+v, err %v; want the %d-byte blob at %v", step, row, res, err, n, rid)
		}
	}

	t.Run("staged", func(t *testing.T) {
		tb, ix := newStaleFixture(t, 40)
		const id = 7
		key := tuple.MustEncodeKey(tuple.Int64(id))
		old, _, err := ix.LookupRID(tuple.Int64(id))
		if err != nil {
			t.Fatalf("LookupRID: %v", err)
		}
		// Stage 3 of Update(id, grown row): the record no longer fits its
		// page, so the new copy is placed elsewhere and the old one stays.
		rec, err := tuple.Encode(tb.schema, grownRow(id, 900), nil)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		moved, sum, err := tb.file.Rewrite(old, rec)
		if err != nil || moved == old {
			t.Fatalf("heap Rewrite = %v, %v; want a new copy away from %v", moved, err, old)
		}
		serves(t, ix, id, old, 300, "before the repoint")
		// Stage 4: the entry names the new copy.
		if _, err := ix.tree.Insert(key, moved.Pack()); err != nil {
			t.Fatalf("repointing the entry: %v", err)
		}
		serves(t, ix, id, moved, 900, "after the repoint")
		// Stage 5 frees the old copy, and a racing insert reuses its slot
		// for another key's row.
		if err := tb.file.DeleteIf(old, sum); err != nil {
			t.Fatalf("freeing the old copy: %v", err)
		}
		if reused, err := reuseSlot(tb, old); err != nil || !reused {
			t.Fatalf("no insert reused slot %v (%v)", old, err)
		}
		serves(t, ix, id, moved, 900, "after the free")
		// A scan that copied the entry before the repoint resolves it only
		// now: the row in the slot is another key's, and the scan re-seeks.
		var r resolver
		var stats QueryStats
		plan, err := ix.resolveProjection(nil)
		if err != nil {
			t.Fatal(err)
		}
		r.reset(ix, plan, nil, HeapOnly, snapLatest, &stats)
		r.bind()
		if row, _, how, err := r.resolve(nil, key, old.Pack(), nil, false); err != nil || how != tierStale {
			t.Fatalf("resolving the copied entry: row %v, tier %d, err %v; want it stale", row, how, err)
		}
		row, rid, how, err := r.resolveCopied(nil, key, old.Pack(), nil, false)
		if err != nil || how != tierHeap || rid != moved || len(row[3].Str) != 900 {
			t.Fatalf("re-seek: row %v at %v, tier %d, err %v; want the new copy at %v", row, rid, how, err, moved)
		}
	})

	t.Run("storm", func(t *testing.T) {
		tb, ix := newStaleFixture(t, 400)
		const hot = 200
		var stop atomic.Bool
		var wg sync.WaitGroup
		// Relocator: the hot row grows out of its page and shrinks again.
		wg.Add(1)
		go func() {
			defer wg.Done()
			rid, _, err := ix.LookupRID(tuple.Int64(hot))
			for n := 0; err == nil && !stop.Load(); n++ {
				rid, err = tb.Update(rid, grownRow(hot, 20+(n%2)*(300+n%400)))
			}
			if err != nil {
				t.Errorf("relocating update: %v", err)
			}
		}()
		// Churn: neighbours are deleted and re-inserted, reusing freed slots.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				id := (n * 7) % 400
				if id == hot || id == hot+1 {
					continue
				}
				rid, ok, err := ix.LookupRID(tuple.Int64(int64(id)))
				if err == nil && ok {
					err = tb.Delete(rid)
				}
				if err == nil {
					_, err = tb.Insert(grownRow(id, 10+n%200))
				}
				if err != nil {
					t.Errorf("churn on id %d: %v", id, err)
					return
				}
			}
		}()
		var lookups, missed int
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline) && !t.Failed(); lookups++ {
			if !check(t, ix, hot) {
				missed++
			}
		}
		stop.Store(true)
		wg.Wait()
		if missed > 0 {
			t.Errorf("%d of %d lookups of a key that always exists answered not-found", missed, lookups)
		}
		if err := ix.Tree().CheckIntegrity(); err != nil {
			t.Fatalf("CheckIntegrity: %v", err)
		}
	})
}

// TestScanStaleEntryReseeks forces the window a scan opens between
// copying an entry out of its leaf and resolving it: there a raw update
// moves the row out of its page — new copy, repointed entry, freed old
// copy — and an insert reuses the freed slot for another key's row. The
// copied entry then names that row. The scan must serve the moved row
// exactly once, from its new copy: a stale unique entry is re-sought
// under its leaf latch. Serial and parallel, heap and covered
// projections.
func TestScanStaleEntryReseeks(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, project := range [][]string{{"id", "blob"}, {"id", "a"}} {
			t.Run(fmt.Sprintf("parallel=%d/%v", par, project), func(t *testing.T) {
				tb, ix := newStaleFixture(t, 40)
				const id = 7
				key := tuple.MustEncodeKey(tuple.Int64(id))
				old, _, err := ix.LookupRID(tuple.Int64(id))
				if err != nil {
					t.Fatalf("LookupRID: %v", err)
				}
				var moved storage.RID
				var fired atomic.Bool
				seam := func(k []byte) {
					if !bytes.Equal(k, key) || fired.Swap(true) {
						return
					}
					var err error
					if moved, err = tb.Update(old, grownRow(id, 900)); err != nil || moved == old {
						t.Errorf("Update = %v, %v; want a relocation away from %v", moved, err, old)
					}
					if reused, err := reuseSlot(tb, old); err != nil || !reused {
						t.Errorf("no insert reused slot %v (%v)", old, err)
					}
				}
				scanSeam.Store(&seam)
				defer scanSeam.Store(nil)
				cur, err := ix.Query(WithKeyRange([]tuple.Value{tuple.Int64(0)}, []tuple.Value{tuple.Int64(1000)}),
					WithProjection(project...), WithParallel(par))
				if err != nil {
					t.Fatalf("Query: %v", err)
				}
				served := map[int64]int{}
				for cur.Next() {
					served[cur.Row()[0].Int]++
					if cur.Row()[0].Int == id && cur.RID() != moved {
						t.Errorf("id %d served from %v, want its new copy at %v", id, cur.RID(), moved)
					}
				}
				if err := cur.Close(); err != nil {
					t.Fatalf("scan: %v", err)
				}
				if !fired.Load() {
					t.Fatal("the scan never resolved the entry of id 7")
				}
				for i := int64(0); i < 40; i++ {
					if served[i] != 1 {
						t.Errorf("id %d served %d times, want once", i, served[i])
					}
				}
				if len(served) != 40 {
					t.Errorf("served %d ids, want 40", len(served))
				}
			})
		}
	}
}

// rangeSumInvariant is the range-sum leg of
// TestParallelQueryRacingWriters: every row the writers touch inside
// [0, hi) carries a = 0, every row they churn outside it a = 1, so
// sum(a) over the range is the stable rows' and must never move — unless
// a reader serves, through a deleted row's stale entry, whatever row now
// sits in its slot. Each round reads the range through a cursor under
// both cache policies, serial and parallel.
func rangeSumInvariant(t *testing.T, ix *Index, hi, wantSum int64, rounds int) {
	for ; rounds > 0 && !t.Failed(); rounds-- {
		for _, policy := range []CachePolicy{CacheFirst, HeapOnly} {
			for _, par := range []int{1, 4} {
				if !rangeSum(t, ix, hi, wantSum, policy, par) {
					return
				}
			}
		}
	}
}

// rangeSum reads [0, hi) once and reports whether it served sum(a) =
// wantSum and no id at or past hi.
func rangeSum(t *testing.T, ix *Index, hi, wantSum int64, policy CachePolicy, par int) bool {
	name := fmt.Sprintf("range sum policy=%d parallel=%d", policy, par)
	cur, err := ix.Query(WithKeyRange(nil, []tuple.Value{tuple.Int64(hi)}), WithProjection("id", "a"),
		WithCachePolicy(policy), WithParallel(par))
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return false
	}
	defer cur.Close()
	var sum, rows int64
	for cur.Next() {
		row := cur.Row()
		if row[0].Int >= hi {
			t.Errorf("%s: served id %d, past the range's end %d", name, row[0].Int, hi)
			return false
		}
		sum += row[1].Int
		rows++
	}
	if err := cur.Err(); err != nil {
		t.Errorf("%s: %v", name, err)
		return false
	}
	if sum != wantSum {
		t.Errorf("%s: sum(a) = %d over %d rows, want %d", name, sum, rows, wantSum)
		return false
	}
	return true
}

// churnOutside inserts and deletes rows with ids ≥ base and a = 1, so
// slots freed inside the asserted range are reused by rows outside it.
func churnOutside(t *testing.T, tb *Table, base int, stop <-chan struct{}) {
	var rids []storage.RID
	for n := 0; ; n++ {
		select {
		case <-stop:
			return
		default:
		}
		row := intRow(base + n)
		row[1] = tuple.Int64(1)
		rid, err := tb.Insert(row)
		if err != nil {
			t.Errorf("churn insert: %v", err)
			return
		}
		if rids = append(rids, rid); len(rids) > 64 {
			if err := tb.Delete(rids[0]); err != nil {
				t.Errorf("churn delete: %v", err)
				return
			}
			rids = rids[1:]
		}
	}
}
