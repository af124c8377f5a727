// Package joincache implements the Section 2.2 extension sketched in
// the paper: "data pages can cache the results of foreign key joins, to
// avoid additional disk accesses for join queries."
//
// The free space of a *heap* page (between its slot directory and
// record data) is recycled as a cache of referenced-table rows, keyed
// by the foreign-key value. A query that fetched a fact row's page
// anyway can then resolve the join without touching the dimension
// table's index or heap.
//
// The slot machinery mirrors the index cache: entries live at absolute
// offsets aligned to the entry size, so they survive the region
// shrinking as records are inserted; writes are volatile (never dirty
// the page); validity hangs on a cache sequence number stored in the
// slotted page's reserved header word (CSNp = CSNjc), so a fresh page's
// region is zeroed before its first use. The paper sketches no
// invalidation protocol for this direction, and nothing here updates a
// referenced table, so CSNjc is a constant.
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

// Stats counts join-cache activity.
type Stats struct {
	Lookups           int64
	Hits              int64
	Misses            int64
	Inserts           int64
	Evictions         int64
	PageInvalidations int64
	SkippedNoLatch    int64
}

// HitRate returns Hits/Lookups.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache manages join-result caching across the heap pages of one fact
// table, for one (referenced table, payload projection) pair.
type Cache struct {
	payloadSize int
	entrySize   int

	mu  sync.Mutex
	rng *rand.Rand

	lookups, hits, misses atomic.Int64
	inserts, evictions    atomic.Int64
	pageInval             atomic.Int64
	skipped               atomic.Int64
}

// New creates a join cache whose entries carry payloadSize bytes of
// joined fields.
func New(payloadSize int, seed int64) (*Cache, error) {
	if payloadSize <= 0 {
		return nil, fmt.Errorf("joincache: payload size must be positive, got %d", payloadSize)
	}
	c := &Cache{
		payloadSize: payloadSize,
		entrySize:   keyBytes + payloadSize,
		rng:         rand.New(rand.NewSource(seed)),
	}
	return c, nil
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Lookups:           c.lookups.Load(),
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Inserts:           c.inserts.Load(),
		Evictions:         c.evictions.Load(),
		PageInvalidations: c.pageInval.Load(),
		SkippedNoLatch:    c.skipped.Load(),
	}
}

// csn is CSNjc: fresh pages (reserved word 0) start invalid.
const csn = 1

// Prepare validates the page's cache region against CSNjc,
// zeroing it when stale. Requires the exclusive latch for repairs;
// returns false when the cache is unusable for this visit.
func (c *Cache) Prepare(sp *storage.SlottedPage, exclusive bool) bool {
	if sp.Reserved() == csn {
		return true
	}
	if !exclusive {
		c.skipped.Add(1)
		return false
	}
	lo, hi := c.region(sp)
	data := sp.Data()
	for i := lo; i < hi; i++ {
		data[i] = 0
	}
	sp.SetReserved(csn)
	c.pageInval.Add(1)
	return true
}

// region returns the page's free-space bounds. The slotted page's
// FreeSpace boundaries move with inserts exactly like the index page's.
func (c *Cache) region(sp *storage.SlottedPage) (lo, hi int) {
	return sp.FreeBounds()
}

// Lookup scans the page's slots for the FK key.
func (c *Cache) Lookup(sp *storage.SlottedPage, fk uint64) ([]byte, bool) {
	c.lookups.Add(1)
	stored := fk + 1
	if stored == 0 {
		c.misses.Add(1)
		return nil, false
	}
	lo, hi := c.region(sp)
	e := c.entrySize
	data := sp.Data()
	first := (lo + e - 1) / e * e
	for off := first; off+e <= hi; off += e {
		if binary.LittleEndian.Uint64(data[off:]) != stored {
			continue
		}
		payload := append([]byte(nil), data[off+keyBytes:off+e]...)
		c.hits.Add(1)
		return payload, true
	}
	c.misses.Add(1)
	return nil, false
}

// Insert stores (fk, payload) into a random free slot, evicting a
// random occupied slot when full. Exclusive latch required.
func (c *Cache) Insert(sp *storage.SlottedPage, exclusive bool, fk uint64, payload []byte) bool {
	if !exclusive {
		c.skipped.Add(1)
		return false
	}
	if len(payload) != c.payloadSize {
		return false
	}
	stored := fk + 1
	if stored == 0 {
		return false
	}
	lo, hi := c.region(sp)
	e := c.entrySize
	data := sp.Data()
	first := (lo + e - 1) / e * e
	if first+e > hi {
		return false
	}
	freeOff, freeSeen := -1, 0
	slotCount := 0
	c.mu.Lock()
	for off := first; off+e <= hi; off += e {
		slotCount++
		v := binary.LittleEndian.Uint64(data[off:])
		if v == stored {
			c.mu.Unlock()
			copy(data[off+keyBytes:], payload)
			c.inserts.Add(1)
			return true
		}
		if v == 0 {
			freeSeen++
			if c.rng.Intn(freeSeen) == 0 {
				freeOff = off
			}
		}
	}
	off := freeOff
	if off < 0 {
		off = first + c.rng.Intn(slotCount)*e
		c.evictions.Add(1)
	}
	c.mu.Unlock()
	binary.LittleEndian.PutUint64(data[off:], stored)
	copy(data[off+keyBytes:], payload)
	c.inserts.Add(1)
	return true
}
