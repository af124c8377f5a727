package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tuple"
)

// TestEvictionStormAcrossShards runs concurrent Lookup / point Query /
// Insert / WarmCache traffic against an engine whose buffer pool is multi-shard
// (a 48-frame pool splits four ways at every GOMAXPROCS) and far
// smaller than the working set, so victim selection
// constantly crosses shard boundaries (frames migrate between shards
// under steal). Run with -race; values served must always be exactly
// what was inserted.
func TestEvictionStormAcrossShards(t *testing.T) {
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 48})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	if got := e.Pool().NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4", got)
	}
	tb, err := e.CreateTable("page", pagesSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const preload = 800 // working set of heap+leaf pages ≫ 48 frames
	for i := 0; i < preload; i++ {
		if _, err := tb.Insert(pageRow(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	ix, err := tb.CreateIndex("name_title", []string{"namespace", "title"},
		WithCache("latest_rev", "len"), WithCacheSeed(1))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})

	// Readers: point lookups over the preloaded range.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make(tuple.Row, 0, 2)
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (g*41 + n*13) % preload
				key := []tuple.Value{tuple.Int32(0), tuple.String(fmt.Sprintf("Title_%05d", i))}
				row, res, err := ix.LookupInto(buf, []string{"latest_rev", "len"}, key...)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
					return
				}
				if !res.Found {
					errs <- fmt.Errorf("reader %d: row %d vanished", g, i)
					return
				}
				if row[0].Int != int64(i*10) || row[1].Int != int64(100+i) {
					errs <- fmt.Errorf("reader %d: row %d served %d/%d", g, i, row[0].Int, row[1].Int)
					return
				}
				buf = row
			}
		}(g)
	}
	// Cursor reader: a kept cursor's point QueryInto over shuffled keys.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cur Cursor
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			i := (n * 67) % preload
			err := tb.QueryInto(&cur, WithIndex("name_title"), WithProjection("latest_rev"),
				WithPrefix(tuple.Int32(0), tuple.String(fmt.Sprintf("Title_%05d", i))))
			if err != nil {
				errs <- fmt.Errorf("cursor reader: %w", err)
				return
			}
			if !cur.Next() || cur.Row()[0].Int != int64(i*10) {
				errs <- fmt.Errorf("cursor reader: key %d wrong: %v %v", i, cur.Row(), cur.Err())
				cur.Close()
				return
			}
			cur.Close()
		}
	}()
	// Warmer: repeatedly refills leaf caches while eviction drops them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := ix.WarmCache(); err != nil {
				errs <- fmt.Errorf("warmer: %w", err)
				return
			}
		}
	}()
	// Writer: inserts fresh rows (new keys) driving splits and evictions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := preload; i < preload+300; i++ {
			if _, err := tb.Insert(pageRow(i)); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
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
		t.Fatalf("integrity after storm: %v", err)
	}
	st := e.Pool().Stats()
	if st.Evictions == 0 {
		t.Error("storm over a 48-frame pool should have evicted")
	}
	if n := e.Pool().ResidentPages(); n > 48 {
		t.Errorf("ResidentPages = %d exceeds capacity 48", n)
	}
}
