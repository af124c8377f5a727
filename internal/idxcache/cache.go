package idxcache

import (
	"encoding/binary"
	"fmt"
	"sync"
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
}

// HitRate returns Hits/Lookups, or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// Cache manages the index cache of one B+Tree: entry geometry, the
// global CSNidx, the predicate log, and placement randomness. The
// per-page state lives entirely in the pages themselves.
type Cache struct {
	payloadSize int
	entrySize   int
	bucketN     int

	csnIdx atomic.Uint32
	log    *PredLog

	// rngState drives placement randomness: each draw is one atomic add
	// plus a splitmix64 mix, so the hit path's promotion never takes a
	// lock. Deterministic for a given seed and draw order.
	rngState atomic.Uint64

	scratch sync.Pool // *[]int rank buffers

	lookups, hits, misses     atomic.Int64
	inserts, evictions, swaps atomic.Int64
	pageInval, fullInval      atomic.Int64
	skipped, matchRanges      atomic.Int64
}

// Config parameterizes a Cache.
type Config struct {
	// PayloadSize is the fixed width of the cached field values.
	// (The paper's Wikipedia example caches 4 fields in 25-byte items.)
	PayloadSize int
	// BucketN is the number of slots per bucket for the swap policy.
	// Defaults to 4.
	BucketN int
	// PredLogLimit is the predicate-log escalation threshold. Beyond
	// this many pending predicates, the whole cache is invalidated via
	// a CSNidx bump. Zero means the default, 1024. A negative limit
	// makes every update escalate (fine-grained invalidation off).
	PredLogLimit int
	// Seed drives placement randomness deterministically.
	Seed int64
}

// New creates a cache manager for entries of the given payload size.
func New(cfg Config) (*Cache, error) {
	if cfg.PayloadSize <= 0 {
		return nil, fmt.Errorf("idxcache: payload size must be positive, got %d", cfg.PayloadSize)
	}
	if cfg.BucketN == 0 {
		cfg.BucketN = 4
	}
	if cfg.BucketN < 1 {
		return nil, fmt.Errorf("idxcache: bucket size must be positive, got %d", cfg.BucketN)
	}
	if cfg.PredLogLimit == 0 {
		cfg.PredLogLimit = 1024
	}
	c := &Cache{
		payloadSize: cfg.PayloadSize,
		entrySize:   ridBytes + cfg.PayloadSize,
		bucketN:     cfg.BucketN,
		log:         NewPredLog(cfg.PredLogLimit),
	}
	c.rngState.Store(uint64(cfg.Seed))
	c.scratch.New = func() any { s := make([]int, 0, 512); return &s }
	// Start CSNidx at 1 so freshly formatted pages (CSNp = 0) are
	// treated as invalid and zeroed before first use.
	c.csnIdx.Store(1)
	return c, nil
}

// EntrySize returns the slot width: 8 bytes of RID plus the payload.
func (c *Cache) EntrySize() int { return c.entrySize }

// PayloadSize returns the cached-field width.
func (c *Cache) PayloadSize() int { return c.payloadSize }

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

// Prepare validates the page's cache against CSNidx and the predicate
// log, zeroing it as needed. It returns false when the cache on this
// page is unusable for this visit (invalid but the visit lacks the
// exclusive latch to repair it). Callers must Prepare before Lookup or
// Insert on a leaf.
func (c *Cache) Prepare(l *btree.Leaf) bool {
	csn := c.csnIdx.Load()
	if l.CSN() != csn || l.CacheEntrySize() != c.entrySize {
		if !l.Exclusive() {
			c.skipped.Add(1)
			return false
		}
		c.zeroRegion(l)
		l.SetCSN(csn)
		l.SetCacheEntrySize(c.entrySize)
		l.SetAppliedSeq(c.log.HeadSeq())
		c.pageInval.Add(1)
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

// zeroRegion wipes the page's free region. Exclusive latch required.
func (c *Cache) zeroRegion(l *btree.Leaf) {
	lo, hi := l.FreeRegion()
	data := l.Data()
	for i := lo; i < hi; i++ {
		data[i] = 0
	}
}

// Lookup scans the page's cache slots for rid. On a hit it returns a
// copy of the payload and, when the visit holds the exclusive latch,
// promotes the entry by swapping it with a random entry in the adjacent
// bucket closer to the stable point.
func (c *Cache) Lookup(l *btree.Leaf, rid uint64) ([]byte, bool) {
	return c.LookupInto(nil, l, rid)
}

// LookupInto is Lookup appending the payload to dst instead of
// allocating — the point-lookup hot path passes a pooled scratch buffer
// so cache hits cost zero heap allocations. The copy is taken before
// any promotion swap, so dst never aliases moving page bytes.
//
// The scan walks slots in address order (sequential memory access); the
// distance-from-S ranking is only computed on a hit, when promotion
// needs it.
func (c *Cache) LookupInto(dst []byte, l *btree.Leaf, rid uint64) ([]byte, bool) {
	c.lookups.Add(1)
	if rid == 0 {
		c.misses.Add(1)
		return nil, false
	}
	lo, hi := l.FreeRegion()
	e := c.entrySize
	data := l.Data()
	first := (lo + e - 1) / e * e
	for off := first; off+e <= hi; off += e {
		if binary.LittleEndian.Uint64(data[off:]) != rid {
			continue
		}
		payload := append(dst, data[off+ridBytes:off+e]...)
		if l.Exclusive() {
			c.promoteAt(l, data, off, lo, hi)
		}
		c.hits.Add(1)
		return payload, true
	}
	c.misses.Add(1)
	return nil, false
}

// promoteAt swaps the entry at absolute offset off with a random slot
// in the adjacent bucket closer to the stable point (the Section 2.1.1
// policy). The distance ranking is generated lazily and only up to
// off's own rank — the promotion target always ranks better, so the
// peripheral remainder is never materialized on the hit path.
func (c *Cache) promoteAt(l *btree.Leaf, data []byte, off, lo, hi int) {
	rankPtr := c.scratch.Get().(*[]int)
	ranks, rank := slotRankTo(lo, hi, c.entrySize, l.StablePoint(), off, *rankPtr)
	defer func() { *rankPtr = ranks; c.scratch.Put(rankPtr) }()
	if rank < 0 {
		return
	}
	bucket := rank / c.bucketN
	if bucket == 0 {
		return
	}
	target := (bucket-1)*c.bucketN + c.randIntn(c.bucketN)
	c.swapSlots(data, ranks[rank], ranks[target])
	c.swaps.Add(1)
}

func (c *Cache) swapSlots(data []byte, a, b int) {
	if a == b {
		return
	}
	for i := 0; i < c.entrySize; i++ {
		data[a+i], data[b+i] = data[b+i], data[a+i]
	}
}

// Insert places (rid, payload) into the page's cache: into a random
// free slot, or — when no slot is free — over a random entry in the
// most peripheral bucket. It requires the exclusive latch and a
// Prepare'd page; it reports whether the entry was stored.
func (c *Cache) Insert(l *btree.Leaf, rid uint64, payload []byte) bool {
	if rid == 0 {
		return false
	}
	if len(payload) != c.payloadSize {
		return false
	}
	if !l.Exclusive() {
		c.skipped.Add(1)
		return false
	}
	lo, hi := l.FreeRegion()
	e := c.entrySize
	data := l.Data()
	first := (lo + e - 1) / e * e
	if first+e > hi {
		return false
	}
	// One sequential pass: refresh in place if the rid is already
	// cached, and reservoir-sample a random free slot along the way.
	freeOff, freeSeen := -1, 0
	for off := first; off+e <= hi; off += e {
		v := binary.LittleEndian.Uint64(data[off:])
		if v == rid {
			copy(data[off+ridBytes:], payload)
			c.inserts.Add(1)
			return true
		}
		if v == 0 {
			freeSeen++
			if c.randIntn(freeSeen) == 0 {
				freeOff = off
			}
		}
	}
	off := freeOff
	if off < 0 {
		// No free slot: evict a random item from the most peripheral
		// bucket of the distance ranking.
		rankPtr := c.scratch.Get().(*[]int)
		ranks := slotRank(lo, hi, e, l.StablePoint(), *rankPtr)
		if len(ranks) == 0 {
			*rankPtr = ranks
			c.scratch.Put(rankPtr)
			return false
		}
		lastBucketStart := (len(ranks) - 1) / c.bucketN * c.bucketN
		off = ranks[lastBucketStart+c.randIntn(len(ranks)-lastBucketStart)]
		*rankPtr = ranks
		c.scratch.Put(rankPtr)
		c.evictions.Add(1)
	}
	binary.LittleEndian.PutUint64(data[off:], rid)
	copy(data[off+ridBytes:], payload)
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

// SlotsIn returns how many cache slots the page currently offers — the
// per-page capacity number behind the paper's Section 2.1.4 analysis.
func (c *Cache) SlotsIn(l *btree.Leaf) int {
	lo, hi := l.FreeRegion()
	return numSlots(lo, hi, c.entrySize)
}
