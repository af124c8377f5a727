package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/tuple"
)

// twoStringSchema is the served benchmark's shape in small: fixed-width
// fields a scan projects, beside two strings it does not.
func twoStringSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "a", Kind: tuple.KindInt64},
		tuple.Field{Name: "b", Kind: tuple.KindInt32},
		tuple.Field{Name: "name", Kind: tuple.KindString},
		tuple.Field{Name: "body", Kind: tuple.KindString},
	)
}

func twoStringRow(i int) tuple.Row {
	return tuple.Row{
		tuple.Int64(int64(i)),
		tuple.Int64(int64(i * 3)),
		tuple.Int32(int32(i % 97)),
		tuple.String(fmt.Sprintf("name-%06d", i)),
		tuple.String(strings.Repeat("b", 40+i%20)),
	}
}

func newTwoStringFixture(t *testing.T, rows, pageSize int, opts ...IndexOption) (*Table, *Index) {
	t.Helper()
	e, err := NewEngine(Options{PageSize: pageSize, BufferPoolPages: 4096})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	tb, err := e.CreateTable("t", twoStringSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	var b Batch
	for i := 0; i < rows; i++ {
		b.Insert(twoStringRow(i))
	}
	if _, err := tb.Apply(&b); err != nil {
		t.Fatalf("load: %v", err)
	}
	ix, err := tb.CreateIndex("by_id", []string{"id"}, opts...)
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	return tb, ix
}

// TestHeapTierZeroAllocsPerRow is TestQueryScanZeroAllocsPerRow's heap
// twin: every row comes from a heap record that carries two strings, the
// reader asked for fixed-width fields only, and so no string is built —
// through the serial cursor, the parallel one and the heap-order scan.
// Before records were decoded by field set each row cost two
// allocations on every one of these paths.
func TestHeapTierZeroAllocsPerRow(t *testing.T) {
	const rows = 2000
	tb, _ := newTwoStringFixture(t, rows, 1024)
	drain := func(opts ...QueryOption) func() QueryStats {
		return func() QueryStats {
			cur, err := tb.Query(append(opts, WithProjection("id", "a", "b"))...)
			if err != nil {
				t.Fatalf("Query: %v", err)
			}
			defer cur.Close()
			var sum int64
			for cur.Next() {
				r := cur.Row()
				sum += r[1].Int - 3*r[0].Int + r[2].Int - r[0].Int%97
			}
			if err := cur.Err(); err != nil || sum != 0 {
				t.Fatalf("scan: checksum %d, %v", sum, err)
			}
			return cur.Stats()
		}
	}
	cases := []struct {
		name string
		scan func() QueryStats
	}{
		{"serial", drain(WithIndex("by_id"))},
		{"parallel", drain(WithIndex("by_id"), WithParallel(2))},
		{"heap order", drain()},
	}
	for _, tc := range cases {
		if st := tc.scan(); st.Rows != rows || st.HeapReads != rows { // also warms pools and plans
			t.Fatalf("%s: %+v, want %d rows, all from the heap", tc.name, st, rows)
		}
		allocs := testing.AllocsPerRun(5, func() { tc.scan() })
		t.Logf("%-30s %4.0f allocs per %d-row scan", tc.name, allocs, rows)
		// Pages, blocks and workers cost a few each; a row must cost nothing.
		if allocs > rows/4 {
			t.Errorf("%s: %.0f allocations per %d-row scan, want none per row", tc.name, allocs, rows)
		}
	}
}

// TestUndeclaredFieldIsPoisoned: with PoisonScratch on (it is, for every
// test of this package) a record decoded for a field set holds the
// poison value everywhere else, fixed-width fields included — so a path
// that reads a field its plan did not declare serves garbage that
// TestReadPathDifferential rejects, not a plausible zero.
func TestUndeclaredFieldIsPoisoned(t *testing.T) {
	s := twoStringSchema()
	rec, err := tuple.Encode(s, twoStringRow(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	need := fieldSet(s.NumFields(), []int{0, 3})
	row, err := decodeFields(nil, s, rec, need, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := twoStringRow(7)
	for i := range row {
		switch {
		case need[i] && !row[i].Equal(want[i]):
			t.Errorf("declared position %d = %v, want %v", i, row[i], want[i])
		case !need[i] && row[i].Kind == want[i].Kind:
			t.Errorf("undeclared position %d holds a plausible %v", i, row[i])
		}
	}
	if full := fieldSet(s.NumFields(), []int{4, 3, 2}, []int{1, 0, 0}); full != nil {
		t.Errorf("a set of every field is %v, want nil", full)
	}
}

// TestScanValidatesLeafCacheOncePerLeaf: a scan holds its leaf shared, so
// it cannot apply pending predicates — before the verdict was kept per
// leaf it re-walked the whole predicate log for every entry it probed.
// One hundred entries on one leaf under fifty pending predicates that
// match none of them: one walk, and every entry still a cache hit.
func TestScanValidatesLeafCacheOncePerLeaf(t *testing.T) {
	_, ix := newTwoStringFixture(t, 1000, 8192, WithCache("a", "b"), WithFillFactor(0.4))
	if _, err := ix.WarmCache(); err != nil {
		t.Fatalf("WarmCache: %v", err)
	}
	for id := 900; id < 950; id++ {
		key, err := tuple.EncodeKey(nil, tuple.Int64(int64(id)))
		if err != nil {
			t.Fatal(err)
		}
		ix.Cache().NotifyUpdate(key)
	}
	for _, par := range []int{0, 2} {
		before := ix.Cache().Stats().MatchRanges
		cur, err := ix.Query(WithKeyRange(nil, []tuple.Value{tuple.Int64(100)}),
			WithProjection("id", "a", "b"), WithParallel(par))
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		for cur.Next() {
		}
		st := cur.Stats()
		if err := cur.Close(); err != nil {
			t.Fatalf("scan: %v", err)
		}
		if st.Rows != 100 || st.CacheHits != 100 || st.LeafFetches != 1 {
			t.Fatalf("parallel=%d: %+v, want 100 rows, all cache hits, from one leaf", par, st)
		}
		if walks := ix.Cache().Stats().MatchRanges - before; walks != 1 {
			t.Errorf("parallel=%d: the predicate log was walked %d times for 100 entries on one leaf, want 1", par, walks)
		}
	}
}

// TestLookupFillsCacheFromNarrowProjection: a point lookup that projects
// the key alone still decodes the cached fields, because its miss fills
// the §2.1 cache from the same decoded row — the next, covered lookup is
// answered from that payload and must read the row's real values.
func TestLookupFillsCacheFromNarrowProjection(t *testing.T) {
	_, ix := newTwoStringFixture(t, 200, 1024, WithCache("a", "b"), WithFillFactor(0.4))
	for id := 0; id < 200; id += 7 {
		row, res, err := ix.Lookup([]string{"id"}, tuple.Int64(int64(id)))
		if err != nil || !res.Found || !res.HeapAccess || !res.CacheFilled || row[0].Int != int64(id) {
			t.Fatalf("id %d: key-only lookup %v %+v, %v", id, row, res, err)
		}
		row, res, err = ix.Lookup([]string{"b", "a", "id"}, tuple.Int64(int64(id)))
		want := twoStringRow(id)
		if err != nil || !res.CacheHit || !row.Equal(tuple.Row{want[2], want[1], want[0]}) {
			t.Fatalf("id %d: covered lookup %v %+v, %v; want %v from the cache", id, row, res, err, want[:3])
		}
	}
}
