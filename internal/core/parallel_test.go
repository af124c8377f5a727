package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

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

// TestParallelQueryMatchesSerial checks both merge modes against the
// serial scan on two inputs: a dense key range, and the same range with
// most keys past its first quarter deleted. Deletes merge no leaves, so
// the plan still splits the sparse tail into segments; at n=2 the scan
// runs eight segments of very different sizes on two workers.
func TestParallelQueryMatchesSerial(t *testing.T) {
	const stored = 6000
	_, _, dense := newQueryFixture(t, stored, true)
	_, skewTb, skewed := newQueryFixture(t, stored, true)
	cur, err := skewed.Query()
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var victims []storage.RID
	for cur.Next() {
		if id := cur.Row()[0].Int; id >= stored/4 && id%64 != 0 {
			victims = append(victims, cur.RID())
		}
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, rid := range victims {
		if err := skewTb.Delete(rid); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	inputs := []struct {
		name string
		ix   *Index
		want int // rows the range holds
		ns   []int
	}{
		{"dense", dense, stored, []int{2, 4, 7}},
		{"skewed", skewed, stored - len(victims), []int{2}},
	}
	proj := WithProjection("id", "a", "b")
	for _, in := range inputs {
		ix := in.ix
		if _, err := ix.WarmCache(); err != nil {
			t.Fatalf("%s: WarmCache: %v", in.name, err)
		}
		serialCur, err := ix.Query(proj)
		if err != nil {
			t.Fatalf("%s: serial Query: %v", in.name, err)
		}
		serialKeys, serialRows, serialStats := drainKeys(t, serialCur)
		if len(serialKeys) != in.want {
			t.Fatalf("%s: serial scanned %d rows, want %d", in.name, len(serialKeys), in.want)
		}
		for _, mode := range []MergeMode{MergeOrdered, MergeUnordered} {
			for _, n := range in.ns {
				name := fmt.Sprintf("%s/mode=%v/n=%d", in.name, mode, n)
				cur, err := ix.Query(proj, WithParallel(n), WithMergeMode(mode))
				if err != nil {
					t.Fatalf("%s: Query: %v", name, err)
				}
				if p, ok := cur.src.(*parallelSource); !ok || len(p.segs) <= n {
					t.Fatalf("%s: %T source, want a parallel one with more segments than workers", name, cur.src)
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
				// Row-level counters match the serial scan's: every row is
				// answered exactly once by exactly one tier. Leaf fetches may
				// exceed serial — adjacent segments share boundary leaves.
				if stats.Rows != serialStats.Rows || stats.CacheHits != serialStats.CacheHits || stats.HeapReads != serialStats.HeapReads {
					t.Fatalf("%s: stats %+v, serial %+v", name, stats, serialStats)
				}
				if stats.LeafFetches < serialStats.LeafFetches {
					t.Fatalf("%s: leaf fetches %d < serial %d", name, stats.LeafFetches, serialStats.LeafFetches)
				}
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
	if _, ok := cur.src.(*parallelSource); ok {
		t.Fatal("n=1 opened a parallel source")
	}
	keys, _, _ := drainKeys(t, cur)
	if len(keys) != 100 {
		t.Fatalf("n=1 scanned %d rows", len(keys))
	}
}

// TestParallelQueryRacingWriters runs parallel scans (both merge modes)
// while writers split the scanned leaves with inserts and delete rows
// outside the asserted set. Every stable row must be served exactly
// once; ordered mode must stay sorted throughout. Beside the scans,
// range cursors — CacheFirst and HeapOnly, serial and parallel — must
// keep serving the stable rows' sum(a): the rows writers insert into or
// delete from the scanned range carry a = 0, the ones a third writer
// churns beyond it a = 1 (see rangeSumInvariant). Run with -race.
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
		rangeSumInvariant(t, ix, 4*stable, stableSum, 6)
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

// TestParallelQueryReadFault fails one page read in the middle of a
// parallel scan, at several depths. The table is built clean, closed,
// and reopened behind a FaultDisk with a pool far smaller than the
// table, so every scan reads from disk. An ordered cursor, limited or
// not, must serve exactly a key prefix of the serial scan and, when it
// comes up short, report the fault; an unordered one must serve no row
// twice, and a full-range one that met the fault must report it. Close
// must leave no frame pinned and no worker running.
func TestParallelQueryReadFault(t *testing.T) {
	const rows, limit = 20000, 5000
	path := filepath.Join(t.TempDir(), "db")
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 4096, Path: path, WAL: true})
	if err != nil {
		t.Fatalf("NewEngine (build): %v", err)
	}
	tb, err := e.CreateTable("t", pinleakSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tb.CreateIndex("by_id", []string{"id"}); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	var b Batch
	for i := 0; i < rows; i++ {
		b.Insert(pinleakRow(i))
	}
	if _, err := tb.Apply(&b); err != nil {
		t.Fatalf("bulk Apply: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close (build): %v", err)
	}

	inner, err := storage.NewFileDisk(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	fd := storage.NewFaultDisk(inner, storage.FaultPlan{})
	e2, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 64, Path: path, WAL: true, Disk: fd})
	if err != nil {
		t.Fatalf("NewEngine (fault): %v", err)
	}
	defer e2.Close()
	tb2, err := e2.Table("t")
	if err != nil {
		t.Fatalf("Table: %v", err)
	}
	ix, err := tb2.Index("by_id")
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	serialCur, err := ix.Query()
	if err != nil {
		t.Fatalf("serial Query: %v", err)
	}
	serial, _, _ := drainKeys(t, serialCur)
	if len(serial) != rows {
		t.Fatalf("serial scan served %d rows, want %d", len(serial), rows)
	}
	inSerial := make(map[string]bool, rows)
	for _, k := range serial {
		inSerial[string(k)] = true
	}
	baseline := runtime.NumGoroutine()

	for _, depth := range []int64{32, 64, 128, 256, 512, 1024} {
		for _, mode := range []MergeMode{MergeOrdered, MergeUnordered} {
			for _, lim := range []int{0, limit} {
				name := fmt.Sprintf("depth=%d/mode=%v/limit=%d", depth, mode, lim)
				fd.Rearm(storage.FaultPlan{Op: storage.FaultRead, After: depth})
				var keys [][]byte
				cur, err := ix.Query(WithParallel(4), WithMergeMode(mode), WithLimit(lim))
				if err == nil { // the fault can fire while Query plans the segments
					for cur.Next() {
						keys = append(keys, append([]byte(nil), cur.Key()...))
					}
					err = cur.Err()
					cur.Close()
				}
				want := rows
				if lim > 0 {
					want = lim
				}
				if err != nil && !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("%s: error does not wrap storage.ErrInjected: %v", name, err)
				}
				if err == nil && len(keys) != want {
					t.Fatalf("%s: served %d of %d rows with no error", name, len(keys), want)
				}
				if mode == MergeOrdered {
					for i, k := range keys {
						if !bytes.Equal(k, serial[i]) {
							t.Fatalf("%s: row %d is key %x, want %x: not a prefix of the serial scan", name, i, k, serial[i])
						}
					}
				} else {
					seen := make(map[string]bool, len(keys))
					for _, k := range keys {
						if seen[string(k)] || !inSerial[string(k)] {
							t.Fatalf("%s: key %x served twice or never stored", name, k)
						}
						seen[string(k)] = true
					}
				}
				if lim == 0 && fd.Fired() && err == nil {
					t.Fatalf("%s: the fault fired and the full-range cursor reported nothing", name)
				}
				if pins := e2.Pool().PinnedFrames(); pins != 0 {
					t.Fatalf("%s: %d frames still pinned after Close", name, pins)
				}
				n := runtime.NumGoroutine()
				for deadline := time.Now().Add(5 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
					time.Sleep(time.Millisecond)
				}
				if n > baseline {
					t.Fatalf("%s: %d goroutines after Close, %d before the scans", name, n, baseline)
				}
			}
		}
	}
}
