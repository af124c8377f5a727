package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// drainKeys drains a cursor, returning each row's encoded key (copied)
// and the first projected value, plus the final stats.
func drainKeys(t *testing.T, cur *Cursor) ([][]byte, []tuple.Row, QueryStats) {
	t.Helper()
	var keys [][]byte
	var rows []tuple.Row
	for cur.Next() {
		keys = append(keys, append([]byte(nil), cur.Key()...))
		rows = append(rows, cur.Row().Clone())
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	stats := cur.Stats()
	cur.Close()
	return keys, rows, stats
}

func TestParallelQueryMatchesSerial(t *testing.T) {
	_, _, ix := newQueryFixture(t, 6000, true)
	if _, err := ix.WarmCache(); err != nil {
		t.Fatalf("WarmCache: %v", err)
	}
	proj := WithProjection("id", "a", "b")
	serialCur, err := ix.Query(proj)
	if err != nil {
		t.Fatalf("serial Query: %v", err)
	}
	serialKeys, serialRows, serialStats := drainKeys(t, serialCur)
	if len(serialKeys) != 6000 {
		t.Fatalf("serial scanned %d rows", len(serialKeys))
	}
	for _, mode := range []MergeMode{MergeOrdered, MergeUnordered} {
		for _, n := range []int{2, 4, 7} {
			name := fmt.Sprintf("mode=%v/n=%d", mode, n)
			cur, err := ix.Query(proj, WithParallel(n), WithMergeMode(mode))
			if err != nil {
				t.Fatalf("%s: Query: %v", name, err)
			}
			keys, rows, stats := drainKeys(t, cur)
			if len(keys) != len(serialKeys) {
				t.Fatalf("%s: got %d rows, want %d", name, len(keys), len(serialKeys))
			}
			if mode == MergeOrdered {
				for i := range keys {
					if !bytes.Equal(keys[i], serialKeys[i]) {
						t.Fatalf("%s: row %d out of order: key %x want %x", name, i, keys[i], serialKeys[i])
					}
					if len(rows[i]) != 3 || rows[i][0].Int != serialRows[i][0].Int {
						t.Fatalf("%s: row %d mismatch: %v want %v", name, i, rows[i], serialRows[i])
					}
				}
			} else {
				seen := make(map[string]int, len(keys))
				for _, k := range keys {
					seen[string(k)]++
				}
				for _, k := range serialKeys {
					if seen[string(k)] != 1 {
						t.Fatalf("%s: key %x served %d times", name, k, seen[string(k)])
					}
				}
			}
			// Row-level counters sum to the serial scan's: every row is
			// answered exactly once by exactly one tier. Leaf fetches may
			// exceed serial — adjacent segments share boundary leaves.
			segStats := cur.SegmentStats()
			if len(segStats) == 0 {
				t.Fatalf("%s: no segment stats", name)
			}
			var sum QueryStats
			for _, s := range segStats {
				sum.Add(s)
			}
			if sum.Rows != serialStats.Rows || sum.CacheHits != serialStats.CacheHits || sum.HeapReads != serialStats.HeapReads {
				t.Fatalf("%s: segment stats %+v don't sum to serial %+v", name, sum, serialStats)
			}
			if sum.LeafFetches < serialStats.LeafFetches {
				t.Fatalf("%s: segment leaf fetches %d < serial %d", name, sum.LeafFetches, serialStats.LeafFetches)
			}
			if stats.Rows != serialStats.Rows {
				t.Fatalf("%s: cursor rows %d want %d", name, stats.Rows, serialStats.Rows)
			}
			if got := stats.CacheHits + stats.HeapReads; got != sum.CacheHits+sum.HeapReads {
				t.Fatalf("%s: cursor tier counters %d, segment sum %d", name, got, sum.CacheHits+sum.HeapReads)
			}
		}
	}
}

func TestParallelQueryLimit(t *testing.T) {
	_, _, ix := newQueryFixture(t, 3000, true)
	cur, err := ix.Query(WithParallel(4), WithLimit(37))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	keys, _, _ := drainKeys(t, cur)
	if len(keys) != 37 {
		t.Fatalf("ordered limit served %d rows", len(keys))
	}
	// Ordered limit is the serial prefix.
	for i, k := range keys {
		want := tuple.MustEncodeKey(tuple.Int64(int64(i)))
		if !bytes.Equal(k, want) {
			t.Fatalf("limited row %d: key %x want %x", i, k, want)
		}
	}
	cur, err = ix.Query(WithParallel(4), WithMergeMode(MergeUnordered), WithLimit(37))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	keys, _, _ = drainKeys(t, cur)
	if len(keys) != 37 {
		t.Fatalf("unordered limit served %d rows", len(keys))
	}
}

func TestParallelQueryEarlyClose(t *testing.T) {
	_, _, ix := newQueryFixture(t, 5000, true)
	for _, mode := range []MergeMode{MergeOrdered, MergeUnordered} {
		cur, err := ix.Query(WithParallel(4), WithMergeMode(mode))
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		for i := 0; i < 10 && cur.Next(); i++ {
		}
		if err := cur.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// Close must have stopped the workers; a second Close is a no-op.
		if err := cur.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

func TestParallelQueryValidation(t *testing.T) {
	_, tb, ix := newQueryFixture(t, 100, true)
	if _, err := tb.Query(WithParallel(4)); err == nil {
		t.Fatal("parallel heap scan must error")
	}
	if _, err := ix.Query(WithParallel(4), WithReverse()); err == nil {
		t.Fatal("parallel reverse must error")
	}
	if _, err := ix.Query(WithParallel(4), WithMergeMode(MergeMode(9))); err == nil {
		t.Fatal("bad merge mode must error")
	}
	// n<=1 falls back to the serial source and still works.
	cur, err := ix.Query(WithParallel(1))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	keys, _, _ := drainKeys(t, cur)
	if len(keys) != 100 {
		t.Fatalf("n=1 scanned %d rows", len(keys))
	}
	if cur.SegmentStats() != nil {
		t.Fatal("serial cursor must not report segment stats")
	}
}

// TestParallelQueryRacingWriters runs parallel scans (both merge modes)
// while writers split the scanned leaves with inserts and delete rows
// outside the asserted set. Every stable row must be served exactly
// once; ordered mode must stay sorted throughout. Beside the scans,
// Aggregate — pushed down and through the cursor, serial and parallel —
// must keep returning the stable rows' sum(a): the rows writers insert
// into or delete from the scanned range carry a = 0, the ones a third
// writer churns beyond it a = 1 (see aggInvariant). Run with -race.
func TestParallelQueryRacingWriters(t *testing.T) {
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 4096})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	tb, err := e.CreateTable("t", intSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const stable = 3000
	// Stable rows at ids ≡ 0 (mod 4): present before any scan starts and
	// never touched by writers, so each must be served exactly once.
	stableIDs := make(map[int64]bool, stable)
	var stableSum int64
	for i := 0; i < stable; i++ {
		id := int64(4 * i)
		if _, err := tb.Insert(intRow(int(id))); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		stableIDs[id] = true
		stableSum += intRow(int(id))[1].Int
	}
	zeroA := func(id int64) tuple.Row {
		row := intRow(int(id))
		row[1] = tuple.Int64(0)
		return row
	}
	// Victim rows interleaved at ids ≡ 2 (mod 4): deleted mid-scan.
	type victim struct {
		id  int64
		rid storage.RID
	}
	var vs []victim
	for i := 0; i < stable; i += 2 {
		id := int64(4*i + 2)
		rid, err := tb.Insert(zeroA(id))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		vs = append(vs, victim{id: id, rid: rid})
	}
	ix, err := tb.CreateIndex("by_id", []string{"id"}, WithCache("a", "b"), WithFillFactor(0.5))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	// Writer 1: inserts fresh odd ids inside the scanned range → splits
	// the leaves the scan is walking.
	writers.Add(1)
	go func() {
		defer writers.Done()
		id := int64(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tb.Insert(zeroA(id)); err != nil {
				t.Errorf("racing insert: %v", err)
				return
			}
			id += 2
		}
	}()
	// Writer 2: deletes victims low-to-high, shrinking scanned leaves
	// ahead of (and under) the cursors.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for _, v := range vs {
			select {
			case <-stop:
				return
			default:
			}
			if err := tb.Delete(v.rid); err != nil {
				t.Errorf("racing delete id=%d: %v", v.id, err)
				return
			}
		}
	}()
	// Writer 3: churns rows beyond the scanned range into the freed slots.
	writers.Add(1)
	go func() {
		defer writers.Done()
		churnOutside(t, tb, 1<<40, stop) // ids no racing insert reaches
	}()
	var scans sync.WaitGroup
	scans.Add(1)
	go func() {
		defer scans.Done()
		aggInvariant(t, ix, 4*stable, stableSum, 6)
	}()
	for _, mode := range []MergeMode{MergeOrdered, MergeUnordered} {
		for _, n := range []int{2, 4} {
			scans.Add(1)
			go func(mode MergeMode, n int) {
				defer scans.Done()
				cur, err := ix.Query(WithParallel(n), WithMergeMode(mode))
				if err != nil {
					t.Errorf("mode=%v n=%d: Query: %v", mode, n, err)
					return
				}
				defer cur.Close()
				seen := make(map[int64]int)
				var prev []byte
				for cur.Next() {
					id := cur.Row()[0].Int
					seen[id]++
					if mode == MergeOrdered {
						if prev != nil && bytes.Compare(prev, cur.Key()) >= 0 {
							t.Errorf("mode=%v n=%d: keys out of order at id=%d", mode, n, id)
							return
						}
						prev = append(prev[:0], cur.Key()...)
					}
				}
				if err := cur.Err(); err != nil {
					t.Errorf("mode=%v n=%d: Err: %v", mode, n, err)
					return
				}
				for id := range stableIDs {
					if seen[id] != 1 {
						t.Errorf("mode=%v n=%d: stable id=%d served %d times", mode, n, id, seen[id])
						return
					}
				}
				for id, c := range seen {
					if c != 1 {
						t.Errorf("mode=%v n=%d: id=%d served %d times", mode, n, id, c)
						return
					}
				}
			}(mode, n)
		}
	}
	scans.Wait()
	close(stop)
	writers.Wait()
	if err := ix.Tree().CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity after race: %v", err)
	}
}
