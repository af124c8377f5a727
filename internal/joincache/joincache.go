// Package joincache implements the Section 2.2 extension sketched in
// the paper: "data pages can cache the results of foreign key joins, to
// avoid additional disk accesses for join queries." A heap page's free
// space (between its slot directory and record data) caches
// referenced-table rows keyed by the foreign-key value, so a query that
// fetched a fact row's page anyway resolves the join there.
//
// As in the index cache, entries sit at absolute offsets aligned to the
// entry size, so they survive the region shrinking as records are
// inserted, and entry writes are volatile (never dirty the page). The
// page carries no CSN: the Cache keeps each page's CSNp by page id, and
// a page whose CSNp is not the current CSNjc — never prepared, or
// prepared before the last Invalidate, which an update to the
// referenced table calls — has its region zeroed on its next exclusive
// Prepare. That repair is not volatile: Prepare reports it, and the
// caller unpins the page dirty (heap.File.VisitPage's callback returns
// true), so a page evicted after it reads back without the entries its
// last write-back carried.
package joincache

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// keyBytes is the slot header: the FK value identifying the entry
// (stored +1 so that zero marks an empty slot; FK value ^uint64(0) is
// therefore not cacheable and simply misses).
const keyBytes = 8

// Cache manages join-result caching across the heap pages of one fact
// table, for one (referenced table, payload projection) pair.
type Cache struct {
	payloadSize int
	entrySize   int

	// csn is CSNjc. It starts at 1, so a page with no CSNp is stale.
	csn     atomic.Uint64
	pageCSN sync.Map // page id → CSNp, the CSNjc its region was zeroed at

	mu  sync.Mutex
	rng *rand.Rand

	// The cache's activity, counted as it happens.
	Lookups, Hits, Misses, Inserts, Evictions atomic.Int64
	PageInvalidations, SkippedNoLatch         atomic.Int64
}

// New creates a join cache whose entries carry payloadSize bytes of
// joined fields.
func New(payloadSize int, seed int64) (*Cache, error) {
	if payloadSize <= 0 {
		return nil, fmt.Errorf("joincache: payload size must be positive, got %d", payloadSize)
	}
	c := &Cache{payloadSize: payloadSize, entrySize: keyBytes + payloadSize, rng: rand.New(rand.NewSource(seed))}
	c.csn.Store(1)
	return c, nil
}

// HitRate returns Hits/Lookups.
func (c *Cache) HitRate() float64 {
	return float64(c.Hits.Load()) / float64(max(1, c.Lookups.Load()))
}

// Invalidate makes every cached join result stale: it bumps CSNjc, so
// each page's region is zeroed on its next exclusive Prepare. Call it
// once an update to the referenced table is visible.
func (c *Cache) Invalidate() { c.csn.Add(1) }

// Prepare validates page id's cache region, whose slotted view is sp,
// against CSNjc, zeroing it when stale. Requires the exclusive latch
// for repairs; usable is false when the cache is unusable for this
// visit. repaired reports a zeroing, which must reach disk before the
// page leaves the pool: the caller unpins the page dirty.
func (c *Cache) Prepare(sp *storage.SlottedPage, id storage.PageID, exclusive bool) (usable, repaired bool) {
	csn := c.csn.Load()
	if v, _ := c.pageCSN.Load(id); v == csn {
		return true, false
	}
	if !exclusive {
		c.SkippedNoLatch.Add(1)
		return false, false
	}
	lo, hi := sp.FreeBounds()
	clear(sp.Data()[lo:hi])
	c.pageCSN.Store(id, csn)
	c.PageInvalidations.Add(1)
	return true, true
}

// slots returns the first whole slot's offset in the page's free region
// (which moves with inserts, as an index page's does) and its end.
func (c *Cache) slots(sp *storage.SlottedPage) (first, hi int) {
	lo, hi := sp.FreeBounds()
	e := c.entrySize
	return (lo + e - 1) / e * e, hi
}

// Lookup scans the page's slots for the FK key.
func (c *Cache) Lookup(sp *storage.SlottedPage, fk uint64) ([]byte, bool) {
	c.Lookups.Add(1)
	stored := fk + 1
	if stored == 0 {
		c.Misses.Add(1)
		return nil, false
	}
	first, hi := c.slots(sp)
	e := c.entrySize
	data := sp.Data()
	for off := first; off+e <= hi; off += e {
		if binary.LittleEndian.Uint64(data[off:]) != stored {
			continue
		}
		payload := append([]byte(nil), data[off+keyBytes:off+e]...)
		c.Hits.Add(1)
		return payload, true
	}
	c.Misses.Add(1)
	return nil, false
}

// Insert stores (fk, payload) into a random free slot, evicting a
// random occupied slot when full. Exclusive latch required.
func (c *Cache) Insert(sp *storage.SlottedPage, exclusive bool, fk uint64, payload []byte) bool {
	if !exclusive {
		c.SkippedNoLatch.Add(1)
		return false
	}
	if len(payload) != c.payloadSize {
		return false
	}
	stored := fk + 1
	if stored == 0 {
		return false
	}
	first, hi := c.slots(sp)
	e := c.entrySize
	data := sp.Data()
	if first+e > hi {
		return false
	}
	// One pass refreshes the entry in place if fk is cached and counts
	// the free slots; one draw then picks the r-th free slot, or the
	// r-th slot to evict when none is free.
	free := 0
	for off := first; off+e <= hi; off += e {
		switch binary.LittleEndian.Uint64(data[off:]) {
		case stored:
			copy(data[off+keyBytes:], payload)
			c.Inserts.Add(1)
			return true
		case 0:
			free++
		}
	}
	n := free
	if free == 0 {
		n = (hi - first) / e
		c.Evictions.Add(1)
	}
	c.mu.Lock()
	r := c.rng.Intn(n)
	c.mu.Unlock()
	off := first + r*e
	for o := first; free > 0; o += e {
		if binary.LittleEndian.Uint64(data[o:]) == 0 {
			if r == 0 {
				off = o
				break
			}
			r--
		}
	}
	binary.LittleEndian.PutUint64(data[off:], stored)
	copy(data[off+keyBytes:], payload)
	c.Inserts.Add(1)
	return true
}
