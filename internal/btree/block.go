package btree

import "repro/internal/storage"

// EntryBlock is a vectorized batch of index entries filled by
// Cursor.NextBlock: key bytes packed into one flat slab delimited by
// offsets, values in a parallel slice. A block amortizes the per-row
// latch acquisition and bounds-check cost of Next — one leaf latch
// fills as many entries as the leaf holds (up to the batch cap).
//
// The key slab is block-owned (copied out under the leaf latch), so a
// block outlives the latch and can cross goroutines. Reset recycles
// the backing arrays.
type EntryBlock struct {
	keys []byte
	offs []int32 // len = Len()+1; entry i is keys[offs[i]:offs[i+1]]
	vals []uint64
}

// Len returns the number of entries in the block.
func (b *EntryBlock) Len() int { return len(b.vals) }

// Key returns entry i's key. It aliases the block's slab: valid until
// the next Reset.
func (b *EntryBlock) Key(i int) []byte { return b.keys[b.offs[i]:b.offs[i+1]] }

// Value returns entry i's value (a packed RID in index leaves).
func (b *EntryBlock) Value(i int) uint64 { return b.vals[i] }

// Reset empties the block, keeping capacity.
func (b *EntryBlock) Reset() {
	b.keys = b.keys[:0]
	b.offs = b.offs[:0]
	b.vals = b.vals[:0]
}

// push appends one entry. Caller holds the source leaf's latch.
func (b *EntryBlock) push(key []byte, val uint64) {
	if len(b.offs) == 0 {
		b.offs = append(b.offs, 0)
	}
	b.keys = append(b.keys, key...)
	b.offs = append(b.offs, int32(len(b.keys)))
	b.vals = append(b.vals, val)
}

// pushKey appends the entry at directory position i of n. Caller holds
// n's latch.
func (b *EntryBlock) pushKey(n node, i int) {
	if len(b.offs) == 0 {
		b.offs = append(b.offs, 0)
	}
	b.keys = n.appendKey(b.keys, i)
	b.offs = append(b.offs, int32(len(b.keys)))
	b.vals = append(b.vals, n.value(i))
}

// NextBlock fills b with up to max entries, advancing the cursor past
// them, and returns how many were served. Zero means the range is
// exhausted or the cursor failed (check Err). The cursor's own
// Key/Value track the last entry in the block, so NextBlock and Next
// interleave correctly and a Close mid-stream resumes after the block.
//
// Forward cursors fill across leaf boundaries — one latch acquisition
// per leaf — with the same version re-validation as Next; reverse
// cursors fall back to per-entry stepping (the reverse path re-descends
// on any version change, so there is no multi-entry latch hold to
// amortize).
func (c *Cursor) NextBlock(b *EntryBlock, max int) int {
	b.Reset()
	if max <= 0 || c.done || c.err != nil {
		return 0
	}
	if c.reverse {
		for b.Len() < max && c.nextReverse() {
			b.push(c.key, c.val)
		}
		return b.Len()
	}
	if c.fr == nil && !c.seekForward() {
		return 0
	}
	for {
		c.fr.Latch.RLock()
		n := asNode(c.fr.Data())
		c.revalidate(n)
		for c.pos < n.nKeys() && b.Len() < max {
			if c.pos >= c.stop {
				c.fr.Latch.RUnlock()
				c.finish()
				return b.Len()
			}
			c.serveLocked(n, c.pos)
			c.pos++
			b.push(c.key, c.val)
		}
		if b.Len() >= max {
			c.fr.Latch.RUnlock()
			return b.Len()
		}
		next := storage.PageID(n.rightSibling())
		c.fr.Latch.RUnlock()
		c.t.pool.Unpin(c.fr, false)
		c.fr = nil
		if next == storage.InvalidPageID {
			c.done = true
			return b.Len()
		}
		fr, err := c.t.pool.Fetch(next)
		if err != nil {
			c.fail(err)
			return b.Len()
		}
		c.fetches++
		c.fr = fr
		// A split may have copied already-served keys into this sibling;
		// re-derive the position from the resume point.
		c.stale = true
	}
}
