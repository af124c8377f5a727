package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tuple"
)

// TestConcurrentLookupsAndUpdates hammers a cached index from multiple
// goroutines while rows are updated, checking that served values are
// always one of the values ever written for that row (no torn or stale
// reads across invalidation).
func TestConcurrentLookupsAndUpdates(t *testing.T) {
	e := newTestEngine(t)
	tb, err := e.CreateTable("page", pagesSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const rows = 200
	rids := make([]tupleRID, rows)
	for i := 0; i < rows; i++ {
		rid, err := tb.Insert(pageRow(i))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		rids[i] = tupleRID{i: i, rid: rid}
	}
	ix, err := tb.CreateIndex("name_title", []string{"namespace", "title"},
		WithCache("latest_rev"), WithCacheSeed(1))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)

	// Readers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := (g*37 + n) % rows
				n++
				key := []tuple.Value{tuple.Int32(0), tuple.String(fmt.Sprintf("Title_%05d", i))}
				row, res, err := ix.Lookup([]string{"latest_rev"}, key...)
				if err != nil {
					errs <- err
					return
				}
				if !res.Found {
					errs <- fmt.Errorf("row %d vanished", i)
					return
				}
				// latest_rev is only ever i*10 (initial) or i*10+1 (updated).
				v := row[0].Int
				if v != int64(i*10) && v != int64(i*10+1) {
					errs <- fmt.Errorf("row %d served impossible value %d", i, v)
					return
				}
			}
		}(g)
	}
	// Writer: bumps latest_rev on a rotating subset.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 50; round++ {
			i := (round * 13) % rows
			key := []tuple.Value{tuple.Int32(0), tuple.String(fmt.Sprintf("Title_%05d", i))}
			rid, found, err := ix.LookupRID(key...)
			if err != nil || !found {
				errs <- fmt.Errorf("writer lookup %d: %v", i, err)
				return
			}
			row, err := tb.Get(rid)
			if err != nil {
				errs <- err
				return
			}
			row[4] = tuple.Int64(int64(i*10 + 1))
			if _, err := tb.Update(rid, row); err != nil {
				errs <- err
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := ix.Tree().CheckIntegrity(); err != nil {
		t.Fatalf("integrity after concurrent churn: %v", err)
	}
}

type tupleRID struct {
	i   int
	rid interface{ Valid() bool }
}

// TestConcurrentInsertsDisjointTables checks engine-level isolation:
// goroutines inserting into separate tables share the pool safely.
func TestConcurrentInsertsDisjointTables(t *testing.T) {
	e := newTestEngine(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		tb, err := e.CreateTable(fmt.Sprintf("t%d", g), pagesSchema())
		if err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
		wg.Add(1)
		go func(tb *Table) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := tb.Insert(pageRow(i)); err != nil {
					errs <- err
					return
				}
			}
		}(tb)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := 0; g < 4; g++ {
		tb, _ := e.Table(fmt.Sprintf("t%d", g))
		if tb.Rows() != 200 {
			t.Errorf("table t%d has %d rows", g, tb.Rows())
		}
	}
}

// TestParallelIngest drives concurrent Table.Insert goroutines through
// a table with a cached unique index — the end-to-end parallel-ingest
// path: heap placement feeding latch-crabbing index maintenance, with
// no stage serialized on a table-wide lock. Every row must be findable
// afterwards and the index structurally intact.
func TestParallelIngest(t *testing.T) {
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 4096})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	tb, err := e.CreateTable("page", pagesSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	ix, err := tb.CreateIndex("name_title", []string{"namespace", "title"},
		WithCache("latest_rev"), WithCacheSeed(1))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}

	const (
		writers   = 6
		perWriter = 400
	)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := tb.Insert(pageRow(w*perWriter + i)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = writers * perWriter
	if tb.Rows() != total {
		t.Errorf("Rows = %d, want %d", tb.Rows(), total)
	}
	if st, err := tb.Heap().Stats(); err != nil || st.LiveRecords != total {
		t.Errorf("heap Stats: LiveRecords=%d err=%v, want %d", st.LiveRecords, err, total)
	}
	if ix.Tree().Len() != total {
		t.Errorf("index holds %d keys, want %d", ix.Tree().Len(), total)
	}
	for i := 0; i < total; i += 37 {
		key := []tuple.Value{tuple.Int32(0), tuple.String(fmt.Sprintf("Title_%05d", i))}
		row, res, err := ix.Lookup([]string{"latest_rev"}, key...)
		if err != nil || !res.Found {
			t.Fatalf("Lookup(%d): found=%v err=%v", i, res.Found, err)
		}
		if row[0].Int != int64(i*10) {
			t.Fatalf("Lookup(%d) latest_rev = %d, want %d", i, row[0].Int, i*10)
		}
	}
	if err := ix.Tree().CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	if pins := e.Pool().PinnedFrames(); pins != 0 {
		t.Errorf("%d pinned frames after quiesce, want 0", pins)
	}
}
