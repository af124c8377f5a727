package joincache

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/storage"
)

func newTestHeap(t *testing.T) *heap.File {
	t.Helper()
	disk, err := storage.NewMemDisk(1024)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(disk, 64)
	if err != nil {
		t.Fatal(err)
	}
	f, err := heap.NewFile(pool)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func pay(c *Cache, b byte) []byte {
	p := make([]byte, c.entrySize-8)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestJoinCacheInsertLookup(t *testing.T) {
	f := newTestHeap(t)
	c, err := New(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := f.Insert([]byte("fact-row"))
	if err != nil {
		t.Fatal(err)
	}
	err = f.VisitPage(rid.Page, func(sp *storage.SlottedPage, excl bool) bool {
		if !excl {
			t.Fatal("uncontended visit should be exclusive")
		}
		if ok, _ := c.Prepare(sp, rid.Page, excl); !ok {
			t.Fatal("Prepare failed")
		}
		if !c.Insert(sp, excl, 42, pay(c, 0xAB)) {
			t.Fatal("Insert failed")
		}
		got, ok := c.Lookup(sp, 42)
		if !ok || !bytes.Equal(got, pay(c, 0xAB)) {
			t.Fatalf("Lookup: %v %v", got, ok)
		}
		if _, ok := c.Lookup(sp, 99); ok {
			t.Error("lookup of uncached fk hit")
		}
		return false
	})
	if err != nil {
		t.Fatalf("VisitPage: %v", err)
	}
	if c.Hits.Load() != 1 || c.Misses.Load() != 1 || c.Inserts.Load() != 1 {
		t.Errorf("hits %d, misses %d, inserts %d; want 1 each", c.Hits.Load(), c.Misses.Load(), c.Inserts.Load())
	}
}

func TestJoinCacheSurvivesRecordInserts(t *testing.T) {
	f := newTestHeap(t)
	c, _ := New(8, 3)
	rid, _ := f.Insert([]byte("first"))
	f.VisitPage(rid.Page, func(sp *storage.SlottedPage, excl bool) bool {
		c.Prepare(sp, rid.Page, excl)
		for k := uint64(1); k <= 5; k++ {
			c.Insert(sp, excl, k, pay(c, byte(k)))
		}
		return false
	})
	// Insert more records into the same page: the free region shrinks
	// and may overwrite peripheral entries; surviving entries must be
	// intact, and the records themselves must never corrupt.
	var rids []storage.RID
	for i := 0; i < 8; i++ {
		r, err := f.Insert(bytes.Repeat([]byte{byte('a' + i)}, 60))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	for i, r := range rids {
		got, err := f.Get(r)
		if err != nil || got[0] != byte('a'+i) {
			t.Fatalf("record %d corrupted: %v %v", i, got, err)
		}
	}
	survived := 0
	f.VisitPage(rid.Page, func(sp *storage.SlottedPage, excl bool) bool {
		if ok, _ := c.Prepare(sp, rid.Page, excl); !ok {
			return false
		}
		for k := uint64(1); k <= 5; k++ {
			if got, ok := c.Lookup(sp, k); ok {
				if !bytes.Equal(got, pay(c, byte(k))) {
					t.Fatalf("entry %d corrupted", k)
				}
				survived++
			}
		}
		return false
	})
	t.Logf("%d/5 entries survived record inserts", survived)
}

func TestJoinCacheCompactionZeroesRegion(t *testing.T) {
	f := newTestHeap(t)
	c, _ := New(8, 4)
	// Fill a page with records, then delete most and force compaction;
	// the grown free region must not present stale record bytes as
	// cache entries.
	var rids []storage.RID
	for i := 0; i < 10; i++ {
		r, err := f.Insert(bytes.Repeat([]byte{0xEE}, 70))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, r)
	}
	page := rids[0].Page
	f.VisitPage(page, func(sp *storage.SlottedPage, excl bool) bool {
		c.Prepare(sp, page, excl) // records the page's CSN: its cache is now "valid"
		return false
	})
	for _, r := range rids[1:] {
		if r.Page == page {
			if _, err := f.Delete(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Force compaction with an insert that needs the reclaimed space.
	if _, err := f.Insert(bytes.Repeat([]byte{0x11}, 200)); err != nil {
		t.Fatal(err)
	}
	f.VisitPage(page, func(sp *storage.SlottedPage, excl bool) bool {
		if ok, _ := c.Prepare(sp, page, excl); !ok {
			t.Fatal("Prepare failed")
		}
		// 0xEEEEEEEE... interpreted as a key would be (0xEE...EE − 1);
		// scan a few candidate keys derived from the stale byte pattern.
		for _, fk := range []uint64{0xEEEEEEEEEEEEEEEE - 1, 0xEEEEEEEEEEEEEEEE} {
			if _, ok := c.Lookup(sp, fk); ok {
				t.Fatal("stale record bytes served as a cache entry")
			}
		}
		return false
	})
}

func TestJoinCacheEvictionWhenFull(t *testing.T) {
	f := newTestHeap(t)
	c, _ := New(24, 5)
	rid, _ := f.Insert([]byte("x"))
	f.VisitPage(rid.Page, func(sp *storage.SlottedPage, excl bool) bool {
		c.Prepare(sp, rid.Page, excl)
		slots := c.SlotsIn(sp)
		if slots < 2 {
			t.Skipf("only %d slots", slots)
		}
		for k := uint64(1); k <= uint64(slots+5); k++ {
			if !c.Insert(sp, excl, k, pay(c, byte(k))) {
				t.Fatalf("insert %d failed", k)
			}
		}
		return false
	})
	if c.Evictions.Load() != 5 {
		t.Errorf("evictions = %d, want 5", c.Evictions.Load())
	}
}

func TestJoinCacheValidation(t *testing.T) {
	if _, err := New(0, 1); err == nil {
		t.Error("zero payload should fail")
	}
	f := newTestHeap(t)
	c, _ := New(8, 6)
	rid, _ := f.Insert([]byte("x"))
	f.VisitPage(rid.Page, func(sp *storage.SlottedPage, excl bool) bool {
		c.Prepare(sp, rid.Page, excl)
		if c.Insert(sp, excl, 1, []byte{1}) {
			t.Error("wrong payload size accepted")
		}
		if c.Insert(sp, false, 1, pay(c, 1)) {
			t.Error("insert without exclusive latch accepted")
		}
		if c.Insert(sp, excl, ^uint64(0), pay(c, 1)) {
			t.Error("reserved fk value accepted")
		}
		return false
	})
	if c.SkippedNoLatch.Load() == 0 {
		t.Error("skipped counter not incremented")
	}
}

// TestJoinCacheInvalidate: Invalidate makes every page's entries stale.
// A shared visit cannot repair a stale page, so it gets no cache; the
// next exclusive Prepare zeroes the region, and the entry misses.
func TestJoinCacheInvalidate(t *testing.T) {
	f := newTestHeap(t)
	c, _ := New(8, 7)
	rid, _ := f.Insert([]byte("x"))
	f.VisitPage(rid.Page, func(sp *storage.SlottedPage, excl bool) bool {
		c.Prepare(sp, rid.Page, excl)
		c.Insert(sp, excl, 42, pay(c, 1))
		if ok, _ := c.Prepare(sp, rid.Page, false); !ok {
			t.Fatal("a fresh page refused a shared visit")
		}
		c.Invalidate()
		if ok, _ := c.Prepare(sp, rid.Page, false); ok {
			t.Fatal("a stale page accepted a shared visit")
		}
		if _, ok := c.Lookup(sp, 42); !ok {
			t.Fatal("the entry is gone before the page was repaired")
		}
		if ok, _ := c.Prepare(sp, rid.Page, true); !ok {
			t.Fatal("exclusive Prepare refused")
		}
		if _, ok := c.Lookup(sp, 42); ok {
			t.Fatal("an entry cached before Invalidate was served")
		}
		return false
	})
	if got := c.PageInvalidations.Load(); got != 2 {
		t.Fatalf("page invalidations = %d, want 2 (first use, then Invalidate)", got)
	}
}

// SlotsIn returns the page's current join-cache capacity.
func (c *Cache) SlotsIn(sp *storage.SlottedPage) int {
	first, hi := c.slots(sp)
	return max(0, (hi-first)/c.entrySize)
}

// TestJoinCacheConcurrentVisits: goroutines visit pages — exclusive
// when the latch is free, shared otherwise — while another invalidates.
// Every entry a lookup serves is the one inserted for its key.
func TestJoinCacheConcurrentVisits(t *testing.T) {
	f := newTestHeap(t)
	c, _ := New(8, 8)
	var pages []storage.PageID
	for len(pages) < 4 {
		rid, err := f.Insert(bytes.Repeat([]byte{'r'}, 300))
		if err != nil {
			t.Fatal(err)
		}
		if len(pages) == 0 || pages[len(pages)-1] != rid.Page {
			pages = append(pages, rid.Page)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				page, fk := pages[(i+w)%len(pages)], uint64(i%16)
				f.VisitPage(page, func(sp *storage.SlottedPage, excl bool) bool {
					if ok, _ := c.Prepare(sp, page, excl); !ok {
						return false
					}
					if got, ok := c.Lookup(sp, fk); ok && !bytes.Equal(got, pay(c, byte(fk))) {
						t.Errorf("fk %d served %v", fk, got)
					} else if !ok {
						c.Insert(sp, excl, fk, pay(c, byte(fk)))
					}
					return false
				})
				if w == 0 && i%100 == 0 {
					c.Invalidate()
				}
			}
		}()
	}
	wg.Wait()
	if c.Hits.Load() == 0 {
		t.Fatal("no lookup hit")
	}
}

// TestJoinCacheRepairOutlivesEviction: an entry that reached disk with
// its page, then went stale, is not served again after the page is
// evicted and read back — the zeroing Prepare reports is written back.
func TestJoinCacheRepairOutlivesEviction(t *testing.T) {
	disk, _ := storage.NewMemDisk(1024)
	pool, err := buffer.NewPool(disk, 8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := heap.NewFile(pool)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := New(8, 9)
	rid, err := f.Insert([]byte("fact-row")) // leaves the page dirty
	if err != nil {
		t.Fatal(err)
	}
	visit := func(fn func(sp *storage.SlottedPage)) {
		t.Helper()
		err := f.VisitPage(rid.Page, func(sp *storage.SlottedPage, excl bool) bool {
			if !excl {
				t.Fatal("uncontended visit should be exclusive")
			}
			_, repaired := c.Prepare(sp, rid.Page, excl)
			fn(sp)
			return repaired
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.EvictAll(); err != nil {
			t.Fatal(err)
		}
	}
	// The entry is written back with the dirty page it sits in.
	visit(func(sp *storage.SlottedPage) { c.Insert(sp, true, 42, pay(c, 1)) })
	visit(func(sp *storage.SlottedPage) {
		if _, ok := c.Lookup(sp, 42); !ok {
			t.Fatal("the entry did not reach disk with its page")
		}
	})
	c.Invalidate()
	visit(func(sp *storage.SlottedPage) {
		if _, ok := c.Lookup(sp, 42); ok {
			t.Fatal("an entry cached before Invalidate was served")
		}
	})
	visit(func(sp *storage.SlottedPage) {
		if got, ok := c.Lookup(sp, 42); ok {
			t.Fatalf("stale entry served after eviction: %v", got)
		}
	})
}
