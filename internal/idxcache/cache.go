package idxcache

import (
	"fmt"
	"sync/atomic"

	"repro/internal/btree"
)

// Stats counts cache activity. All fields are totals since creation.
type Stats struct {
	Lookups           int64
	Hits              int64
	Misses            int64
	Inserts           int64
	Evictions         int64
	Swaps             int64
	PageInvalidations int64 // page caches zeroed (CSN mismatch or predicate hit)
	FullInvalidations int64 // CSNidx bumps
	SkippedNoLatch    int64 // cache writes abandoned: exclusive latch unavailable
	MatchRanges       int64 // walks of the predicate log against a page's key range
	// NotAdmitted counts rows Insert was handed no payload for: their
	// cached values lie outside the caller's payload plan.
	NotAdmitted int64
}

// HitRate returns Hits/Lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache manages the index cache of one B+Tree: the payload width, the
// global CSNidx, the predicate log, and placement randomness. The
// per-page state — slot geometry included — lives entirely in the pages
// themselves.
type Cache struct {
	// payloadSize is the width of the payloads the cache is handed; a
	// page whose slots hold another width starts over at its next
	// Prepare.
	payloadSize atomic.Int32
	bucketN     int

	csnIdx atomic.Uint32
	log    *PredLog

	// rngState drives placement randomness: each draw is one atomic add
	// plus a splitmix64 mix, so the hit path's promotion never takes a
	// lock. Deterministic for a given seed and draw order.
	rngState atomic.Uint64

	lookups, hits, misses     atomic.Int64
	inserts, evictions, swaps atomic.Int64
	pageInval, fullInval      atomic.Int64
	skipped, matchRanges      atomic.Int64
	notAdmitted               atomic.Int64
}

// Config parameterizes a Cache.
type Config struct {
	// PayloadSize is the width of the cached field values until Insert
	// is handed payloads of another width. (The paper's Wikipedia
	// example caches 4 fields in 25-byte items.)
	PayloadSize int
	// BucketN is the number of slots per bucket for the swap policy.
	// Defaults to 4.
	BucketN int
	// Seed drives placement randomness deterministically.
	Seed int64
}

// New creates a cache manager for entries of the given payload size.
func New(cfg Config) (*Cache, error) {
	if cfg.PayloadSize <= 0 || cfg.PayloadSize > maxPayload {
		return nil, fmt.Errorf("idxcache: payload size must be in [1, %d], got %d", maxPayload, cfg.PayloadSize)
	}
	if cfg.BucketN == 0 {
		cfg.BucketN = 4
	}
	if cfg.BucketN < 1 {
		return nil, fmt.Errorf("idxcache: bucket size must be positive, got %d", cfg.BucketN)
	}
	c := &Cache{bucketN: cfg.BucketN, log: NewPredLog()}
	c.payloadSize.Store(int32(cfg.PayloadSize))
	c.rngState.Store(uint64(cfg.Seed))
	// Start CSNidx at 1 so freshly formatted pages (CSNp = 0) are
	// treated as invalid and zeroed before first use.
	c.csnIdx.Store(1)
	return c, nil
}

// PayloadSize returns the cached-field width.
func (c *Cache) PayloadSize() int { return int(c.payloadSize.Load()) }

// CSN returns the current global CSNidx.
func (c *Cache) CSN() uint32 { return c.csnIdx.Load() }

// Log exposes the predicate log (for tests and stats).
func (c *Cache) Log() *PredLog { return c.log }

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Lookups:           c.lookups.Load(),
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		Inserts:           c.inserts.Load(),
		Evictions:         c.evictions.Load(),
		Swaps:             c.swaps.Load(),
		PageInvalidations: c.pageInval.Load(),
		FullInvalidations: c.fullInval.Load(),
		SkippedNoLatch:    c.skipped.Load(),
		MatchRanges:       c.matchRanges.Load(),
		NotAdmitted:       c.notAdmitted.Load(),
	}
}

// InvalidateAll invalidates every page's cache at once by bumping
// CSNidx — the paper's O(1) full-index invalidation. Used on restart,
// on predicate-log escalation, and on cache reconfiguration.
func (c *Cache) InvalidateAll() {
	c.csnIdx.Add(1)
	c.fullInval.Add(1)
}

// SeedCSN forces CSNidx to csn, used when reopening an engine from a
// checkpoint: on-disk leaf pages carry the CSNs they were checkpointed
// with, so a fresh cache restarting from 1 could collide with a
// resurrected page's CSNp and validate stale (pre-crash) cache entries.
// Seeding strictly above the checkpointed CSN makes every resurrected
// page read as invalid, which is the restart semantics the paper's
// volatile cache requires anyway.
func (c *Cache) SeedCSN(csn uint32) {
	c.csnIdx.Store(csn)
}

// NotifyUpdate must be called when a tuple indexed under key is updated
// or deleted, so stale cache entries cannot be served. It appends to
// the predicate log, escalating to a full invalidation past the
// threshold.
func (c *Cache) NotifyUpdate(key []byte) {
	if c.log.Append(key) {
		c.InvalidateAll()
		c.log.Clear()
	}
}

// Prepare validates the page's cache against CSNidx, the payload width
// and the predicate log, zeroing it as needed. It returns false when the
// cache on this page is unusable for this visit (invalid but the visit
// lacks the exclusive latch to repair it). Callers must Prepare before
// Lookup or Insert on a leaf.
//
// A page starting over takes slots of the page's tag width (tagWidth)
// plus the payload width, recorded in the leaf header's cacheEntrySize
// (slotFormat), so a page whose slots were cut for another payload
// width reads as invalid here.
func (c *Cache) Prepare(l *btree.Leaf) bool {
	csn, payload := c.csnIdx.Load(), c.PayloadSize()
	if f := l.CacheEntrySize(); l.CSN() != csn || f == 0 || formatPayload(f) != payload {
		if !l.Exclusive() {
			c.skipped.Add(1)
			return false
		}
		c.reformat(l, tagWidth(l), payload)
		l.SetCSN(csn)
		l.SetAppliedSeq(c.log.HeadSeq())
		return true
	}
	head := c.log.HeadSeq()
	applied := l.AppliedSeq()
	if applied == head {
		return true
	}
	ok := l.NumKeys() > 0
	if ok {
		c.matchRanges.Add(1)
	}
	if ok && c.log.MatchRange(applied, l) {
		if !l.Exclusive() {
			c.skipped.Add(1)
			return false
		}
		c.zeroRegion(l)
		c.pageInval.Add(1)
	}
	if l.Exclusive() {
		l.SetAppliedSeq(head)
	}
	return true
}

// reformat zeroes the page's cache and cuts its slots anew: tag bytes
// of RID plus payload bytes. Exclusive latch required.
func (c *Cache) reformat(l *btree.Leaf, tag, payload int) {
	c.zeroRegion(l)
	l.SetCacheEntrySize(slotFormat(tag, payload))
	c.pageInval.Add(1)
}

// zeroRegion wipes the page's free region. Exclusive latch required.
func (c *Cache) zeroRegion(l *btree.Leaf) {
	lo, hi := l.FreeRegion()
	data := l.Data()
	for i := lo; i < hi; i++ {
		data[i] = 0
	}
}

// LookupInto scans the page's cache slots for rid. On a hit it appends
// the payload to dst and, when the visit holds the exclusive latch,
// promotes the entry by swapping it with a random entry in the adjacent
// bucket closer to the stable point. The point-lookup hot path passes a
// pooled scratch buffer, so cache hits cost zero heap allocations. The
// copy is taken before any promotion swap, so dst never aliases moving
// page bytes.
//
// The scan walks slots in address order (sequential memory access).
func (c *Cache) LookupInto(dst []byte, l *btree.Leaf, rid uint64) ([]byte, bool) {
	c.lookups.Add(1)
	f := l.CacheEntrySize()
	tag, e := formatTag(f), formatEntry(f)
	if rid == 0 || f == 0 || !fitsTag(rid, tag) {
		c.misses.Add(1)
		return nil, false
	}
	lo, hi := l.FreeRegion()
	o := slotsOf(lo, hi, e, l.StablePoint())
	data := l.Data()
	for off := o.first; off+e <= hi; off += e {
		if loadTag(data, off, tag) != rid {
			continue
		}
		payload := append(dst, data[off+tag:off+e]...)
		if l.Exclusive() {
			c.promoteAt(data, o, off)
		}
		c.hits.Add(1)
		return payload, true
	}
	c.misses.Add(1)
	return nil, false
}

// promoteAt swaps the entry at absolute offset off with a random slot
// in the adjacent bucket closer to the stable point (the Section 2.1.1
// policy).
func (c *Cache) promoteAt(data []byte, o slotOrder, off int) {
	bucket := o.rank(off) / c.bucketN
	if bucket == 0 {
		return
	}
	target := (bucket-1)*c.bucketN + c.randIntn(c.bucketN)
	swapSlots(data, off, o.offset(target), o.e)
	c.swaps.Add(1)
}

func swapSlots(data []byte, a, b, e int) {
	if a == b {
		return
	}
	for i := 0; i < e; i++ {
		data[a+i], data[b+i] = data[b+i], data[a+i]
	}
}

// Insert places (rid, payload) into the page's cache: into a random
// free slot, or — when no slot is free — over a random entry in the
// most peripheral bucket. It requires the exclusive latch and a
// Prepare'd page; it reports whether the entry was stored.
//
// An empty payload stores nothing and counts as not admitted: the
// caller's payload plan cannot hold the row's values. A payload of
// another width than the cache's makes it the cache's width (the
// caller's plan changed), and a RID wider than the page's slot tags
// (the leaf widened since its cache was cut): either starts this
// page's cache over.
func (c *Cache) Insert(l *btree.Leaf, rid uint64, payload []byte) bool {
	if rid == 0 {
		return false
	}
	if len(payload) == 0 || len(payload) > maxPayload {
		c.notAdmitted.Add(1)
		return false
	}
	if !l.Exclusive() {
		c.skipped.Add(1)
		return false
	}
	if len(payload) != c.PayloadSize() {
		c.payloadSize.Store(int32(len(payload)))
	}
	f := l.CacheEntrySize()
	if tag := formatTag(f); f == 0 || formatPayload(f) != len(payload) || !fitsTag(rid, tag) {
		c.reformat(l, max(tagWidth(l), ridWidth(rid)), len(payload))
		f = l.CacheEntrySize()
	}
	tag, e := formatTag(f), formatEntry(f)
	lo, hi := l.FreeRegion()
	o := slotsOf(lo, hi, e, l.StablePoint())
	if o.n == 0 {
		return false
	}
	data := l.Data()
	// One sequential pass refreshes in place if the rid is already
	// cached, and counts the free slots; one draw then picks the free
	// slot, a second walk finds it.
	free := 0
	for off := o.first; off+e <= hi; off += e {
		switch loadTag(data, off, tag) {
		case rid:
			copy(data[off+tag:], payload)
			c.inserts.Add(1)
			return true
		case 0:
			free++
		}
	}
	var off int
	if free > 0 {
		r := c.randIntn(free)
		for off = o.first; ; off += e {
			if loadTag(data, off, tag) == 0 {
				if r == 0 {
					break
				}
				r--
			}
		}
	} else {
		// No free slot: evict a random item from the most peripheral
		// bucket.
		last := (o.n - 1) / c.bucketN * c.bucketN
		off = o.offset(last + c.randIntn(o.n-last))
		c.evictions.Add(1)
	}
	storeTag(data[off:], rid, tag)
	copy(data[off+tag:], payload)
	c.inserts.Add(1)
	return true
}

// randIntn returns a pseudo-random int in [0, n): one atomic add into
// the splitmix64 state plus the mix, so concurrent placement decisions
// never serialize on a lock.
func (c *Cache) randIntn(n int) int {
	x := c.rngState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(n))
}

// SlotsIn returns how many whole cache slots the page currently offers
// — the per-page capacity number behind the paper's Section 2.1.4
// analysis — and the entry size it counted them at: the page's own, or
// the one its next Prepare would cut.
func (c *Cache) SlotsIn(l *btree.Leaf) (slots, entrySize int) {
	e := tagWidth(l) + c.PayloadSize()
	if f := l.CacheEntrySize(); l.CSN() == c.csnIdx.Load() && f != 0 && formatPayload(f) == c.PayloadSize() {
		e = formatEntry(f)
	}
	lo, hi := l.FreeRegion()
	return slotsOf(lo, hi, e, l.StablePoint()).n, e
}
