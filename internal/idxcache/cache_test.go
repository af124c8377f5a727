package idxcache

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/storage"
)

func newCacheTree(t *testing.T, pageSize int) *btree.Tree {
	t.Helper()
	disk, err := storage.NewMemDisk(pageSize)
	if err != nil {
		t.Fatalf("NewMemDisk: %v", err)
	}
	pool, err := buffer.NewPool(disk, 256)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	tr, err := btree.New(pool)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func k64(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func pay(c *Cache, b byte) []byte {
	p := make([]byte, c.PayloadSize())
	for i := range p {
		p[i] = b
	}
	return p
}

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New cache: %v", err)
	}
	return c
}

func TestCacheInsertLookupRoundTrip(t *testing.T) {
	tr := newCacheTree(t, 1024)
	c := mustCache(t, Config{PayloadSize: 17, Seed: 1})
	for i := 0; i < 10; i++ {
		tr.Insert(k64(i), uint64(i+1))
	}
	err := tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		if !c.Prepare(l) {
			t.Fatal("Prepare failed with exclusive latch")
		}
		for i := 0; i < 5; i++ {
			if !c.Insert(l, uint64(i+1), pay(c, byte(i))) {
				t.Fatalf("Insert %d failed", i)
			}
		}
		for i := 0; i < 5; i++ {
			got, ok := c.LookupInto(nil, l, uint64(i+1))
			if !ok {
				t.Fatalf("Lookup %d missed", i)
			}
			for _, b := range got {
				if b != byte(i) {
					t.Fatalf("payload %d corrupted", i)
				}
			}
		}
		if _, ok := c.LookupInto(nil, l, 999); ok {
			t.Error("lookup of uncached rid hit")
		}
	})
	if err != nil {
		t.Fatalf("VisitLeaf: %v", err)
	}
	st := c.Stats()
	if st.Hits != 5 || st.Misses != 1 || st.Inserts != 5 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCacheSurvivesIndexInserts(t *testing.T) {
	tr := newCacheTree(t, 4096)
	c := mustCache(t, Config{PayloadSize: 16, Seed: 2})
	tr.Insert(k64(0), 1000) // the leaf's RIDs take two bytes: tags fit every rid below
	// Fill the cache on the (single) leaf.
	installed := 0
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		c.Prepare(l)
		for i := 0; i < 1000; i++ {
			if !c.Insert(l, uint64(i+1), pay(c, byte(i))) {
				break
			}
			installed++
		}
	})
	if installed < 10 {
		t.Fatalf("only %d entries installed", installed)
	}
	// Hammer hot entries so they migrate toward the stable point.
	hot := []uint64{1, 2, 3}
	for round := 0; round < 50; round++ {
		tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
			if !c.Prepare(l) {
				return
			}
			for _, rid := range hot {
				c.LookupInto(nil, l, rid)
			}
		})
	}
	// Insert index keys: the free region shrinks, overwriting periphery.
	for i := 1; i <= 60; i++ {
		tr.Insert(k64(i), uint64(i+1))
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("index corrupted by cache: %v", err)
	}
	// Hot entries should still be cached; many cold ones are gone.
	survived := 0
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		if !c.Prepare(l) {
			t.Fatal("prepare failed")
		}
		for _, rid := range hot {
			if _, ok := c.LookupInto(nil, l, rid); ok {
				survived++
			}
		}
	})
	if survived == 0 {
		t.Error("no hot entry survived index growth; swap-toward-center not working")
	}
}

// slotOf returns the offset of rid's slot on the page, or -1.
func slotOf(l *btree.Leaf, rid uint64) int {
	f := l.CacheEntrySize()
	lo, hi := l.FreeRegion()
	o := slotsOf(lo, hi, formatEntry(f), l.StablePoint())
	for r := 0; r < o.n; r++ {
		if off := o.offset(r); loadTag(l.Data(), off, formatTag(f)) == rid {
			return off
		}
	}
	return -1
}

// TestCacheEvictionPeripheralBucket overfills a page: every insert past
// its capacity evicts an entry whose slot ranks in the outermost
// bucket. Then hits under the exclusive latch move an entry one bucket
// toward S per hit, until it reaches the innermost bucket and stays.
func TestCacheEvictionPeripheralBucket(t *testing.T) {
	const bucketN = 2
	tr := newCacheTree(t, 1024)
	c := mustCache(t, Config{PayloadSize: 24, BucketN: bucketN, Seed: 3})
	tr.Insert(k64(0), 1)
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		c.Prepare(l)
		slots, e := c.SlotsIn(l)
		if slots < 4 {
			t.Skipf("page too small: %d slots", slots)
		}
		lo, hi := l.FreeRegion()
		o := slotsOf(lo, hi, e, l.StablePoint())
		outer := (slots - 1) / bucketN
		for i := 0; i < slots+10; i++ {
			rid := uint64(i + 1)
			if !c.Insert(l, rid, pay(c, byte(i))) {
				t.Fatalf("insert %d failed", i)
			}
			if b := o.rank(slotOf(l, rid)) / bucketN; i >= slots && b != outer {
				t.Errorf("insert %d evicted from bucket %d, want the outermost, %d", i, b, outer)
			}
		}
		// The last rid installed sits in the outermost bucket.
		rid := uint64(slots + 10)
		for b := outer; b >= 0; b-- {
			if got := o.rank(slotOf(l, rid)) / bucketN; got != b {
				t.Fatalf("rid %d in bucket %d, want %d", rid, got, b)
			}
			if _, ok := c.LookupInto(nil, l, rid); !ok {
				t.Fatalf("rid %d missed", rid)
			}
		}
		if got := o.rank(slotOf(l, rid)) / bucketN; got != 0 {
			t.Errorf("a hit in the innermost bucket moved rid %d to bucket %d", rid, got)
		}
	})
	st := c.Stats()
	if st.Evictions != 10 {
		t.Errorf("evictions = %d, want 10", st.Evictions)
	}
}

// TestCacheInsertPlacementUniformAndSeeded: an insert into a page with
// free slots lands on one of them, each about equally often across
// seeds, and a seed always picks the same one.
func TestCacheInsertPlacementUniformAndSeeded(t *testing.T) {
	tr := newCacheTree(t, 1024)
	tr.Insert(k64(0), 1)
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		fill := mustCache(t, Config{PayloadSize: 24, Seed: 1})
		fill.Prepare(l)
		slots, e := fill.SlotsIn(l)
		for rid := uint64(1); rid <= uint64(slots/3); rid++ {
			fill.Insert(l, rid, pay(fill, 1))
		}
		taken := map[int]bool{}
		for rid := uint64(1); rid <= uint64(slots/3); rid++ {
			taken[slotOf(l, rid)] = true
		}
		free := slots - len(taken)
		// place inserts rid 200 (a one-byte tag, like the leaf's) with a cache of the given seed, returns
		// its slot and frees it again.
		place := func(seed int64) int {
			c := mustCache(t, Config{PayloadSize: 24, Seed: seed})
			c.Prepare(l)
			if !c.Insert(l, 200, pay(c, 2)) {
				t.Fatal("insert failed")
			}
			off := slotOf(l, 200)
			clear(l.Data()[off : off+e])
			return off
		}
		const perSlot = 200
		counts := map[int]int{}
		for seed := int64(0); seed < int64(perSlot*free); seed++ {
			off := place(seed)
			if taken[off] {
				t.Fatalf("seed %d placed over an occupied slot", seed)
			}
			counts[off]++
			if again := place(seed); again != off {
				t.Fatalf("seed %d placed at %d, then at %d", seed, off, again)
			}
		}
		if len(counts) != free {
			t.Fatalf("inserts used %d of %d free slots", len(counts), free)
		}
		for off, n := range counts {
			if n < perSlot/2 || n > perSlot*3/2 {
				t.Errorf("slot at %d chosen %d times, want about %d", off, n, perSlot)
			}
		}
	})
}

func TestCacheCSNInvalidation(t *testing.T) {
	tr := newCacheTree(t, 1024)
	c := mustCache(t, Config{PayloadSize: 8, Seed: 4})
	tr.Insert(k64(0), 1)
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		c.Prepare(l)
		c.Insert(l, 1, pay(c, 0xAA))
	})
	c.InvalidateAll()
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		if !c.Prepare(l) {
			t.Fatal("prepare failed")
		}
		if _, ok := c.LookupInto(nil, l, 1); ok {
			t.Error("entry survived full invalidation")
		}
		if l.CSN() != c.CSN() {
			t.Error("prepare did not refresh CSNp")
		}
	})
}

func TestCachePredicateInvalidation(t *testing.T) {
	tr := newCacheTree(t, 1024)
	c := mustCache(t, Config{PayloadSize: 8, Seed: 5})
	for i := 0; i < 5; i++ {
		tr.Insert(k64(i), uint64(i+1))
	}
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		c.Prepare(l)
		c.Insert(l, 1, pay(c, 0x11))
		c.Insert(l, 2, pay(c, 0x22))
	})
	// Update a tuple whose key lies in this page: cache must be zeroed.
	c.NotifyUpdate(k64(2))
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		if !c.Prepare(l) {
			t.Fatal("prepare failed")
		}
		if _, ok := c.LookupInto(nil, l, 1); ok {
			t.Error("entry survived matching predicate (page zeroed expected)")
		}
	})
	if c.Stats().FullInvalidations != 0 {
		t.Error("predicate under threshold must not escalate")
	}
}

func TestCachePredicateOutsideRangeKeepsCache(t *testing.T) {
	tr := newCacheTree(t, 1024)
	c := mustCache(t, Config{PayloadSize: 8, Seed: 6})
	for i := 0; i < 5; i++ {
		tr.Insert(k64(i), uint64(i+1))
	}
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		c.Prepare(l)
		c.Insert(l, 1, pay(c, 0x11))
	})
	// Predicate for a key far outside this leaf's range.
	c.NotifyUpdate(k64(1 << 30))
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		if !c.Prepare(l) {
			t.Fatal("prepare failed")
		}
		if _, ok := c.LookupInto(nil, l, 1); !ok {
			t.Error("non-matching predicate destroyed the cache")
		}
	})
}

func TestCachePredLogEscalation(t *testing.T) {
	c := mustCache(t, Config{PayloadSize: 8, Seed: 7})
	before := c.CSN()
	for i := 0; i < predLogLimit; i++ {
		c.NotifyUpdate(k64(i))
	}
	if c.CSN() != before {
		t.Fatal("a predicate log at its limit must not escalate")
	}
	c.NotifyUpdate(k64(predLogLimit)) // one past the limit
	if c.CSN() == before {
		t.Error("exceeding the predicate-log limit should bump CSNidx")
	}
	if len(c.Log().ends) != 0 {
		t.Error("escalation should clear the log")
	}
}

func TestCacheRefreshOverwritesInPlace(t *testing.T) {
	tr := newCacheTree(t, 1024)
	c := mustCache(t, Config{PayloadSize: 8, Seed: 8})
	tr.Insert(k64(0), 1)
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		c.Prepare(l)
		c.Insert(l, 7, pay(c, 0x01))
		c.Insert(l, 7, pay(c, 0x02)) // same rid: refresh
		got, ok := c.LookupInto(nil, l, 7)
		if !ok || got[0] != 0x02 {
			t.Errorf("refresh failed: %v %v", got, ok)
		}
	})
	// Only one slot should be used.
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		lo, hi := l.FreeRegion()
		used := 0
		data := l.Data()
		_, e := c.SlotsIn(l)
		o := slotsOf(lo, hi, e, l.StablePoint())
		for r := 0; r < o.n; r++ {
			if data[o.offset(r)] != 0 { // the one-byte tag of rid 7
				used++
			}
		}
		if used != 1 {
			t.Errorf("%d slots used after refresh, want 1", used)
		}
	})
}

func TestCacheConfigValidation(t *testing.T) {
	if _, err := New(Config{PayloadSize: 0}); err == nil {
		t.Error("zero payload should fail")
	}
	if _, err := New(Config{PayloadSize: 8, BucketN: -1}); err == nil {
		t.Error("negative bucket should fail")
	}
}

func TestCacheInsertRejectsBadArgs(t *testing.T) {
	tr := newCacheTree(t, 1024)
	c := mustCache(t, Config{PayloadSize: 8, Seed: 9})
	tr.Insert(k64(0), 1)
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		c.Prepare(l)
		if c.Insert(l, 0, pay(c, 1)) {
			t.Error("rid 0 must be rejected (marks empty slots)")
		}
		if c.Insert(l, 5, nil) {
			t.Error("an empty payload must be rejected")
		}
	})
	if got := c.Stats().NotAdmitted; got != 1 {
		t.Errorf("NotAdmitted = %d, want 1 (the empty payload)", got)
	}
}

// TestWidenedLeafNeverHitsOldSlots widens a leaf under its cache: a
// key whose RID needs five bytes joins a leaf of one-byte RIDs whose
// cache holds one-byte tags. A lookup of the wide RID misses even where
// its low byte equals a cached tag, and installing it cuts the page's
// slots anew, so no slot written at the old width is read again.
func TestWidenedLeafNeverHitsOldSlots(t *testing.T) {
	tr := newCacheTree(t, 1024)
	c := mustCache(t, Config{PayloadSize: 4, Seed: 11})
	for i := 0; i < 20; i++ {
		tr.Insert(k64(i), uint64(i+1))
	}
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		if !c.Prepare(l) {
			t.Fatal("prepare failed")
		}
		for i := 0; i < 20; i++ {
			if !c.Insert(l, uint64(i+1), pay(c, byte(i+1))) {
				t.Fatalf("insert %d failed", i)
			}
		}
		if _, e := c.SlotsIn(l); e != 1+c.PayloadSize() {
			t.Fatalf("entry size %d, want a one-byte tag plus %d", e, c.PayloadSize())
		}
	})
	const wide = 0x07_0000_0007 // low byte: rid 7, which is cached
	tr.Insert(k64(20), wide)
	tr.VisitLeaf(k64(0), func(l *btree.Leaf) {
		if !c.Prepare(l) {
			t.Fatal("prepare failed")
		}
		if got, ok := c.LookupInto(nil, l, wide); ok {
			t.Fatalf("wide rid hit a one-byte slot: payload %v", got)
		}
		if !c.Insert(l, wide, pay(c, 0xEE)) {
			t.Fatal("installing the wide rid failed")
		}
		if _, e := c.SlotsIn(l); e != 5+c.PayloadSize() {
			t.Errorf("entry size %d after the wide install, want a five-byte tag plus %d", e, c.PayloadSize())
		}
		for i := 0; i < 20; i++ {
			if got, ok := c.LookupInto(nil, l, uint64(i+1)); ok {
				t.Errorf("rid %d hit a slot written at the old width: %v", i+1, got)
			}
		}
		if got, ok := c.LookupInto(nil, l, wide); !ok || got[0] != 0xEE {
			t.Errorf("wide rid: %v %v", got, ok)
		}
	})
}

func TestCacheStressWithIndexChurn(t *testing.T) {
	tr := newCacheTree(t, 2048)
	c := mustCache(t, Config{PayloadSize: 17, Seed: 10})
	// Interleave index inserts/deletes with cache fills and lookups; the
	// index must stay intact and the cache must never return a payload
	// for the wrong rid. Every 15th round pushes the predicate log past
	// its limit, so whole-cache invalidations interleave too.
	for round := 0; round < 40; round++ {
		base := round * 50
		for i := 0; i < 50; i++ {
			tr.Insert(k64(base+i), uint64(base+i+1))
		}
		for i := 0; i < 25; i++ {
			key := k64(base + i*2)
			tr.VisitLeaf(key, func(l *btree.Leaf) {
				if !c.Prepare(l) {
					return
				}
				rid := uint64(base + i*2 + 1)
				p := make([]byte, c.PayloadSize())
				binary.LittleEndian.PutUint64(p, rid)
				c.Insert(l, rid, p)
				if got, ok := c.LookupInto(nil, l, rid); ok {
					if binary.LittleEndian.Uint64(got) != rid {
						t.Fatalf("cache returned wrong payload for rid %d", rid)
					}
				}
			})
		}
		if round%3 == 0 {
			for i := 0; i < 10; i++ {
				key := k64(base + i)
				tr.Delete(key)
				c.NotifyUpdate(key)
			}
		}
		if round%15 == 7 {
			for i := 0; i <= predLogLimit; i++ {
				c.NotifyUpdate(k64(1<<40 + i))
			}
		}
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after churn: %v", err)
	}
	if got := c.Stats().FullInvalidations; got < 3 {
		t.Errorf("%d predicate-log escalations, want ≥ 3", got)
	}
}

// span is a [min, max] key range standing in for a leaf.
type span struct{ min, max string }

func (s span) Covers(key []byte) bool {
	return string(key) >= s.min && string(key) <= s.max
}

func TestPredLogMatchRange(t *testing.T) {
	log := NewPredLog()
	log.Append([]byte("m"))
	if !log.MatchRange(0, span{"a", "z"}) {
		t.Error("predicate inside range should match")
	}
	if log.MatchRange(0, span{"n", "z"}) {
		t.Error("predicate below range should not match")
	}
	if log.MatchRange(1, span{"a", "z"}) {
		t.Error("already-applied predicate should not match")
	}
	log.Clear()
	if log.MatchRange(0, span{"a", "z"}) {
		t.Error("cleared log should not match")
	}
	if log.HeadSeq() != 1 {
		t.Errorf("HeadSeq after clear = %d, want 1 (monotonic)", log.HeadSeq())
	}
}

func TestCapacityEstimateWikipediaNumbers(t *testing.T) {
	// Section 2.1.4: 360 MB of key data, 68% fill, 25-byte items →
	// ~7.9M cache items covering >70% of ~11M page-table tuples.
	e := CapacityEstimate{
		KeyBytes:     360 << 20,
		FillFactor:   0.68,
		PageSize:     8192,
		PageOverhead: 44,
		ItemSize:     25,
		TableRows:    11_000_000,
	}
	items := e.Items()
	if items < 6_000_000 || items > 9_500_000 {
		t.Errorf("items = %d, want ≈7.9M", items)
	}
	if cov := e.Coverage(); cov < 0.55 || cov > 0.9 {
		t.Errorf("coverage = %.2f, want ≈0.7", cov)
	}
	if e.LeafPages() <= 0 || e.FreeBytes() <= 0 {
		t.Error("degenerate estimate")
	}
	_ = fmt.Sprintf("%s", e) // String must not panic
}
