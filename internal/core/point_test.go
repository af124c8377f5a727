package core

import (
	"testing"
	"time"

	"repro/internal/tuple"
)

// pageFetches is every buffer-pool fetch the engine has served.
func pageFetches(e *Engine) int64 {
	st := e.Pool().Stats()
	return st.Hits + st.Misses
}

// pointAnswer is how one point read was answered. leaves is the
// cursor's LeafFetches, -1 where the entry point reports none.
type pointAnswer struct {
	hit, filled bool
	leaves      int64
}

// TestPointReadsFetchOneLeafAndFill: every point read — Lookup,
// LookupInto, a covered point Query and a kept cursor's QueryInto —
// descends to its leaf once (the tree's height in page fetches, plus the
// heap page on a miss), installs the cache entry it missed after the
// heap answered, and is answered from that entry the next time.
func TestPointReadsFetchOneLeafAndFill(t *testing.T) {
	e, tb, ix := newQueryFixture(t, 2000, true) // cache on, never warmed
	covered := []string{"id", "a", "b"}
	var (
		dst  tuple.Row
		kept Cursor
	)
	fromCursor := func(t *testing.T, id int64, cur *Cursor) pointAnswer {
		t.Helper()
		if !cur.Next() {
			t.Fatalf("id %d: no row: %v", id, cur.Err())
		}
		if r := cur.Row(); r[0].Int != id || r[1].Int != 3*id || r[2].Int != id%97 {
			t.Fatalf("id %d: row %v", id, r)
		}
		if cur.Next() {
			t.Fatalf("id %d: a second row %v", id, cur.Row())
		}
		st := cur.Stats()
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		return pointAnswer{st.CacheHits == 1, st.CacheFills == 1, st.LeafFetches}
	}
	fromLookup := func(t *testing.T, id int64, row tuple.Row, res LookupResult, err error) pointAnswer {
		t.Helper()
		if err != nil || !res.Found || row[0].Int != id || row[1].Int != 3*id || row[2].Int != id%97 {
			t.Fatalf("id %d: %v %+v %v", id, row, res, err)
		}
		if res.HeapAccess == res.CacheHit {
			t.Fatalf("id %d: %+v: a found row is answered by exactly one tier", id, res)
		}
		return pointAnswer{res.CacheHit, res.CacheFilled, -1}
	}
	reads := []struct {
		name string
		read func(t *testing.T, id int64) pointAnswer
	}{
		{"Lookup", func(t *testing.T, id int64) pointAnswer {
			row, res, err := ix.Lookup(covered, tuple.Int64(id))
			return fromLookup(t, id, row, res, err)
		}},
		{"LookupInto", func(t *testing.T, id int64) pointAnswer {
			row, res, err := ix.LookupInto(dst, covered, tuple.Int64(id))
			dst = row
			return fromLookup(t, id, row, res, err)
		}},
		{"Query", func(t *testing.T, id int64) pointAnswer {
			cur, err := tb.Query(WithIndex("by_id"), WithPrefix(tuple.Int64(id)), WithProjection(covered...))
			if err != nil {
				t.Fatal(err)
			}
			return fromCursor(t, id, cur)
		}},
		{"QueryInto", func(t *testing.T, id int64) pointAnswer {
			if err := tb.QueryInto(&kept, WithIndex("by_id"), WithPrefix(tuple.Int64(id)), WithProjection(covered...), WithLimit(5)); err != nil {
				t.Fatal(err)
			}
			return fromCursor(t, id, &kept)
		}},
	}
	height := int64(ix.Tree().Height())
	if height < 2 {
		t.Fatalf("tree height %d: the descent must pass an internal page", height)
	}
	for i, r := range reads {
		t.Run(r.name, func(t *testing.T) {
			id := int64(101 + 409*i)
			for _, warm := range []bool{false, true} {
				before := pageFetches(e)
				a := r.read(t, id)
				fetched, want := pageFetches(e)-before, height
				if !warm {
					want++ // the heap page
				}
				if a.hit != warm || a.filled == warm || fetched != want || (a.leaves >= 0 && a.leaves != 1) {
					t.Errorf("warm=%v: %+v after %d page fetches; want hit %v, fill %v, %d fetches, one leaf",
						warm, a, fetched, warm, !warm, want)
				}
			}
		})
	}
}

// TestOnlyPointShapesFill: the fill belongs to a point query at the
// latest state under CacheFirst. A read of one key shaped otherwise —
// reversed, parallel, a key prefix of a two-field index, HeapOnly, a
// transaction's snapshot — is answered from the heap and leaves the
// entry uncached, so the Lookup after it still misses (and fills).
func TestOnlyPointShapesFill(t *testing.T) {
	e, tb, ix := newQueryFixture(t, 2000, true)
	covered := []string{"id", "a", "b"}
	tx := e.Begin()
	defer tx.Abort()
	shapes := []struct {
		name string
		open func(id int64) (*Cursor, error)
	}{
		{"reverse", func(id int64) (*Cursor, error) {
			return tb.Query(WithIndex("by_id"), WithPrefix(tuple.Int64(id)), WithProjection(covered...), WithReverse())
		}},
		{"parallel", func(id int64) (*Cursor, error) {
			return tb.Query(WithIndex("by_id"), WithPrefix(tuple.Int64(id)), WithProjection(covered...), WithParallel(2))
		}},
		{"heap-only", func(id int64) (*Cursor, error) {
			return tb.Query(WithIndex("by_id"), WithPrefix(tuple.Int64(id)), WithProjection(covered...), WithCachePolicy(HeapOnly))
		}},
		{"snapshot", func(id int64) (*Cursor, error) {
			return tx.Query(tb, WithIndex("by_id"), WithPrefix(tuple.Int64(id)), WithProjection(covered...))
		}},
	}
	for i, s := range shapes {
		id := int64(300 + 211*i)
		cur, err := s.open(id)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		n := 0
		for ; cur.Next(); n++ {
			if cur.Row()[0].Int != id {
				t.Errorf("%s: row %v", s.name, cur.Row())
			}
		}
		st := cur.Stats()
		if err := cur.Close(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if n != 1 || st.HeapReads != 1 || st.CacheFills != 0 {
			t.Errorf("%s: %d rows, %+v; want one heap-answered row and no fill", s.name, n, st)
		}
		if _, res, err := ix.Lookup(covered, tuple.Int64(id)); err != nil || res.CacheHit || !res.CacheFilled {
			t.Errorf("%s: the Lookup after it: %+v %v; want a miss that fills", s.name, res, err)
		}
	}

	// A key prefix of a unique two-field index is a range.
	pt, pix := pageFixture(t, 200, true)
	proj := []string{"latest_rev", "len"}
	cur, err := pt.Query(WithIndex("name_title"), WithPrefix(tuple.Int32(0)), WithProjection(proj...), WithLimit(3))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; cur.Next(); n++ {
	}
	if st := cur.Stats(); n != 3 || st.CacheFills != 0 {
		t.Errorf("prefix: %d rows, %+v; want 3 and no fill", n, st)
	}
	cur.Close()
	if _, res, err := pix.Lookup(proj, pageKey(0)...); err != nil || res.CacheHit || !res.CacheFilled {
		t.Errorf("prefix: the Lookup after it: %+v %v; want a miss that fills", res, err)
	}
}

// TestPointCursorHoldsNoLatch: once Next returns, a point cursor holds
// neither latch nor pin on the leaf it read, so while its row is still
// open the caller may do what a latch holder may not — here, insert a
// row on that very leaf (the last key's, where a larger one lands). Had
// the latch been held, the insert would wait for Close and Close for the
// insert. A missing key yields no row and no error.
func TestPointCursorHoldsNoLatch(t *testing.T) {
	e, tb, _ := newQueryFixture(t, 100, true)
	const id = 99
	var cur Cursor
	if err := tb.QueryInto(&cur, WithIndex("by_id"), WithPrefix(tuple.Int64(id))); err != nil {
		t.Fatal(err)
	}
	if !cur.Next() || cur.Row()[0].Int != id || cur.Row()[1].Int != 3*id {
		t.Fatalf("point read of %d: %v %v", id, cur.Row(), cur.Err())
	}
	if n := e.Pool().PinnedFrames(); n != 0 {
		t.Errorf("%d frames pinned while the row is open", n)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tb.Insert(intRow(1000 + id))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("insert while the row is open: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("an insert on the read leaf blocked while the row was open: the latch is still held")
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tb.QueryInto(&cur, WithIndex("by_id"), WithPrefix(tuple.Int64(5000))); err != nil {
		t.Fatal(err)
	}
	if cur.Next() || cur.Err() != nil {
		t.Fatalf("missing key: row %v, err %v", cur.Row(), cur.Err())
	}
	cur.Close()
}
