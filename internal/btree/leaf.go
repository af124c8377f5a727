package btree

import (
	"sync"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// Leaf is the view of a pinned, latched leaf page handed to VisitLeaf
// callbacks. It exposes exactly what the index cache (internal/idxcache)
// needs: the lookup result, the free-space region, and the CSN /
// predicate-log header fields. It is only valid during the callback.
//
// nblb:carries-pin
type Leaf struct {
	fr        *buffer.Frame
	n         node
	exclusive bool
	dirty     bool
}

// PageID returns the leaf's page id.
func (l *Leaf) PageID() storage.PageID { return l.fr.ID() }

// Version returns the leaf's directory version: it moves whenever a key
// enters or leaves the page, so two visits that read the same version
// saw the same keys.
func (l *Leaf) Version() uint32 { return l.n.version() }

// Exclusive reports whether the visit holds the frame latch exclusively.
// Cache mutations (insert, swap, zero) are only legal when true; the
// visit acquires the exclusive latch with TryLock and falls back to a
// shared latch rather than waiting, implementing the paper's "give up a
// write operation if the latch is not immediately available".
func (l *Leaf) Exclusive() bool { return l.exclusive }

// Find looks up key within this leaf.
func (l *Leaf) Find(key []byte) (uint64, bool) {
	pos, found := l.n.search(key)
	if !found {
		return 0, false
	}
	return l.n.value(pos), true
}

// NumKeys returns the number of keys in the leaf.
func (l *Leaf) NumKeys() int { return l.n.nKeys() }

// AppendKey appends the key at position i to dst.
func (l *Leaf) AppendKey(dst []byte, i int) []byte { return l.n.appendKey(dst, i) }

// ValueAt returns the value at position i.
func (l *Leaf) ValueAt(i int) uint64 { return l.n.value(i) }

// Data returns the whole page buffer.
func (l *Leaf) Data() []byte { return l.n.data }

// FreeRegion returns the [lo, hi) byte bounds of the page's free space —
// the index cache's home.
func (l *Leaf) FreeRegion() (lo, hi int) { return l.n.freeRegion() }

// CSN returns the page cache sequence number CSNp.
func (l *Leaf) CSN() uint32 { return l.n.CSN() }

// SetCSN stores CSNp. This is a cache-metadata write: it does not dirty
// the page, so it is volatile like the cache contents it guards.
func (l *Leaf) SetCSN(v uint32) { l.n.setCSN(v) }

// AppliedSeq returns the predicate-log sequence already applied here.
func (l *Leaf) AppliedSeq() uint32 { return l.n.appliedSeq() }

// SetAppliedSeq records the predicate-log position (volatile).
func (l *Leaf) SetAppliedSeq(v uint32) { l.n.setAppliedSeq(v) }

// CacheEntrySize returns the cache slot width last used on this page
// (0 = cache never initialized here).
func (l *Leaf) CacheEntrySize() int { return l.n.cacheEntrySize() }

// SetCacheEntrySize records the cache slot width (volatile).
func (l *Leaf) SetCacheEntrySize(v int) { l.n.setCacheEntrySize(v) }

// StablePoint returns the page offset S where the directory front and
// the key front would meet if the page filled completely — the paper's
// S = K/(K+D) × P adapted to this layout's orientation (directory grows
// up from the header, key cells grow down from the footer; the paper's
// figure has them mirrored). Cache entries nearest S are overwritten
// last as the page fills, so the cache concentrates hot items there.
//
// K is estimated as the mean cell size of the keys currently in the
// page (suffixes: the page prefix is stored once, above the cells); an
// empty page assumes a 24-byte cell.
func (l *Leaf) StablePoint() int {
	h := nodeHeaderSize
	pf := l.n.pageEnd() - l.n.prefixLen() // where the key cells start
	avgCell := 24
	if k := l.n.nKeys(); k > 0 {
		avgCell = (pf - l.n.keyStart()) / k
		if avgCell < 1 {
			avgCell = 1
		}
	}
	nStar := float64(pf-h) / float64(dirEntrySize+avgCell)
	return h + int(nStar*float64(dirEntrySize))
}

// Covers reports whether key lies within the leaf's key range, its
// smallest key ≤ key ≤ its largest (false for an empty leaf). The
// predicate log uses it to decide whether an invalidation predicate
// could match this page; it compares in place, so the check copies no
// key out of the page.
func (l *Leaf) Covers(key []byte) bool { return l.n.covers(key) }

// MarkDirty flags the page for write-back. Regular index maintenance
// uses it; cache operations never do.
func (l *Leaf) MarkDirty() { l.dirty = true }

// leafPool recycles Leaf views: &Leaf{} escapes to the heap via the
// visitor closure, and VisitLeaf runs once per point lookup.
var leafPool = sync.Pool{New: func() any { return new(Leaf) }}

// VisitLeaf pins the leaf covering key and runs fn over it. The frame
// latch is acquired — during the read-coupled descent, before the
// parent's latch is dropped — exclusively if that succeeds without
// blocking (enabling cache writes), otherwise shared; fn must check
// Leaf.Exclusive before mutating. The page is unpinned dirty only if fn
// called MarkDirty. The Leaf is recycled after fn returns; fn must not
// retain it. Writers to other leaves proceed concurrently with fn.
func (t *Tree) VisitLeaf(key []byte, fn func(l *Leaf)) error {
	fr, exclusive, err := t.descendLatched(func(n node) storage.PageID {
		return storage.PageID(n.childFor(key))
	}, leafVisit)
	if err != nil {
		return err
	}
	l := leafPool.Get().(*Leaf)
	*l = Leaf{fr: fr, n: asNode(fr.Data()), exclusive: exclusive}
	fn(l)
	if exclusive {
		fr.Latch.Unlock()
	} else {
		fr.Latch.RUnlock()
	}
	dirty := l.dirty
	*l = Leaf{}
	leafPool.Put(l)
	t.pool.Unpin(fr, dirty)
	return nil
}

// VisitAllLeaves runs fn over every leaf page left to right under the
// same latching protocol as VisitLeaf. Used for cache warming and for
// stats that need leaf internals. The walk does not couple latches
// across siblings, so leaves split mid-walk may be visited in their
// post-split shape.
func (t *Tree) VisitAllLeaves(fn func(l *Leaf) bool) error {
	id, err := t.leftmostLeaf()
	if err != nil {
		return err
	}
	for id != storage.InvalidPageID {
		fr, err := t.pool.Fetch(id)
		if err != nil {
			return err
		}
		exclusive := fr.Latch.TryLock()
		if !exclusive {
			fr.Latch.RLock()
		}
		l := &Leaf{fr: fr, n: asNode(fr.Data()), exclusive: exclusive}
		cont := fn(l)
		next := storage.PageID(l.n.rightSibling())
		if exclusive {
			fr.Latch.Unlock()
		} else {
			fr.Latch.RUnlock()
		}
		t.pool.Unpin(fr, l.dirty)
		if !cont {
			return nil
		}
		id = next
	}
	return nil
}
