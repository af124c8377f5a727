package btree

import (
	"bytes"
	"fmt"

	"repro/internal/storage"
)

// Stats describes the physical shape of the tree. LeafFreeBytes is the
// headline number for the paper: the total free space across leaf pages
// that the index cache can colonize.
type Stats struct {
	Height        int
	Pages         int
	LeafPages     int
	InternalPages int
	Keys          int64
	// KeyBytes is the total key payload in leaves, each key counted
	// whole (the paper's "360 MB of key data" for Wikipedia's
	// name_title index).
	KeyBytes int64
	// StoredKeyBytes is what the leaves store of that payload: every
	// key's suffix plus one prefix per page.
	StoredKeyBytes int64
	// UsedBytes counts directory, cell and page-prefix bytes across all
	// nodes.
	UsedBytes int64
	// UsableBytes counts page capacity (excluding headers/footers).
	UsableBytes int64
	// LeafFreeBytes is free space across leaves only: the cache budget.
	LeafFreeBytes int64
	// MeanLeafFill is the average per-leaf fill factor.
	MeanLeafFill float64
	// SizeBytes is Pages × page size: the index's total footprint
	// (what must fit in RAM for the Section 3.1 partition argument).
	SizeBytes int64
}

// Stats walks the whole tree, latching one node at a time. Concurrent
// writers may mutate pages between visits, so a snapshot taken during
// traffic is approximate; quiescent snapshots are exact.
func (t *Tree) Stats() (Stats, error) {
	root, height := t.root, t.Height()
	var st Stats
	st.Height = height
	pageSize := t.pool.Disk().PageSize()
	var leafFillSum float64
	err := t.walk(root, func(id storage.PageID, n node) error {
		st.Pages++
		st.UsedBytes += int64(n.usedBytes())
		st.UsableBytes += int64(n.usableBytes())
		if n.isLeaf() {
			st.LeafPages++
			st.Keys += int64(n.nKeys())
			for i := 0; i < n.nKeys(); i++ {
				st.KeyBytes += int64(n.keyLen(i))
			}
			st.StoredKeyBytes += int64(n.storedKeyBytes())
			st.LeafFreeBytes += int64(n.freeSpace())
			leafFillSum += n.fill()
		} else {
			st.InternalPages++
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	if st.LeafPages > 0 {
		st.MeanLeafFill = leafFillSum / float64(st.LeafPages)
	}
	st.SizeBytes = int64(st.Pages) * int64(pageSize)
	return st, nil
}

// walk visits every node reachable from id, depth first.
func (t *Tree) walk(id storage.PageID, fn func(id storage.PageID, n node) error) error {
	fr, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	fr.Latch.RLock()
	n := asNode(fr.Data())
	if err := fn(id, n); err != nil {
		fr.Latch.RUnlock()
		t.pool.Unpin(fr, false)
		return err
	}
	var children []storage.PageID
	if !n.isLeaf() {
		children = append(children, storage.PageID(n.leftmostChild()))
		for i := 0; i < n.nKeys(); i++ {
			children = append(children, storage.PageID(n.value(i)))
		}
	}
	fr.Latch.RUnlock()
	t.pool.Unpin(fr, false)
	for _, c := range children {
		if err := t.walk(c, fn); err != nil {
			return err
		}
	}
	return nil
}

// CheckIntegrity validates structural invariants and returns the first
// violation found:
//
//   - every page footer magic intact (cache writes stayed in bounds)
//   - keys strictly increasing within every node
//   - directory offsets inside the key-cell region, below the prefix
//   - child separators consistent with parent keys
//   - leaf sibling chain strictly increasing, with every left link
//     mirroring the right link it doubles
//
// Tests call it after hostile interleavings of index inserts, cache
// writes, and concurrent crabbing writers. The check assumes a
// quiescent tree (no concurrent writers while it runs).
func (t *Tree) CheckIntegrity() error {
	root := t.root
	if err := t.checkNode(root, nil, nil); err != nil {
		return err
	}
	return t.checkLeafChain()
}

func (t *Tree) checkNode(id storage.PageID, lower, upper []byte) error {
	fr, err := t.pool.Fetch(id)
	if err != nil {
		return err
	}
	fr.Latch.RLock()
	n := asNode(fr.Data())
	defer func() {
		fr.Latch.RUnlock()
		t.pool.Unpin(fr, false)
	}()
	if !n.footerOK() {
		return fmt.Errorf("btree: %v footer magic destroyed", id)
	}
	cellsEnd := n.pageEnd() - n.prefixLen()
	if n.dirEnd() < nodeHeaderSize || n.dirEnd() > n.keyStart() || n.keyStart() > cellsEnd {
		return fmt.Errorf("btree: %v region bounds corrupt: dirEnd=%d keyStart=%d prefixLen=%d", id, n.dirEnd(), n.keyStart(), n.prefixLen())
	}
	if n.dirEnd() != nodeHeaderSize+n.nKeys()*dirEntrySize {
		return fmt.Errorf("btree: %v dirEnd inconsistent with nKeys", id)
	}
	var prev, k []byte
	for i := 0; i < n.nKeys(); i++ {
		off := n.dirEntry(i)
		if off < n.keyStart() || off+cellSize(n.keyLen(i)-n.prefixLen()) > cellsEnd {
			return fmt.Errorf("btree: %v directory entry %d points outside cell region", id, i)
		}
		k = n.appendKey(k[:0], i)
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			return fmt.Errorf("btree: %v keys out of order at %d", id, i)
		}
		if lower != nil && bytes.Compare(k, lower) < 0 {
			return fmt.Errorf("btree: %v key %d below subtree lower bound", id, i)
		}
		if upper != nil && bytes.Compare(k, upper) >= 0 {
			return fmt.Errorf("btree: %v key %d at/above subtree upper bound", id, i)
		}
		prev = append(prev[:0], k...)
	}
	if n.isLeaf() {
		return nil
	}
	// Recurse into children with refined bounds. Copy keys out before
	// releasing the latch is unnecessary — we hold it for the duration.
	type childSpan struct {
		id           storage.PageID
		lower, upper []byte
	}
	spans := make([]childSpan, 0, n.nKeys()+1)
	var firstUpper []byte
	if n.nKeys() > 0 {
		firstUpper = n.appendKey(nil, 0)
	}
	spans = append(spans, childSpan{storage.PageID(n.leftmostChild()), copyBytes(lower), firstUpper})
	for i := 0; i < n.nKeys(); i++ {
		lo := n.appendKey(nil, i)
		var hi []byte
		if i+1 < n.nKeys() {
			hi = n.appendKey(nil, i+1)
		} else {
			hi = copyBytes(upper)
		}
		spans = append(spans, childSpan{storage.PageID(n.value(i)), lo, hi})
	}
	for _, s := range spans {
		if err := t.checkNode(s.id, s.lower, s.upper); err != nil {
			return err
		}
	}
	return nil
}

func copyBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

func (t *Tree) checkLeafChain() error {
	id, err := t.leftmostLeaf()
	if err != nil {
		return err
	}
	var prevLast []byte
	var count int64
	prev := storage.InvalidPageID
	for id != storage.InvalidPageID {
		fr, err := t.pool.Fetch(id)
		if err != nil {
			return err
		}
		fr.Latch.RLock()
		n := asNode(fr.Data())
		if got := storage.PageID(n.leftSibling()); got != prev {
			fr.Latch.RUnlock()
			t.pool.Unpin(fr, false)
			return fmt.Errorf("btree: leaf %v left link %v, want %v (chain asymmetric)", id, got, prev)
		}
		if n.nKeys() > 0 {
			if prevLast != nil && n.cmpKey(0, prevLast) <= 0 {
				fr.Latch.RUnlock()
				t.pool.Unpin(fr, false)
				return fmt.Errorf("btree: leaf chain out of order at %v", id)
			}
			prevLast = n.appendKey(prevLast[:0], n.nKeys()-1)
		}
		count += int64(n.nKeys())
		next := storage.PageID(n.rightSibling())
		fr.Latch.RUnlock()
		t.pool.Unpin(fr, false)
		prev = id
		id = next
	}
	if got := t.numKeys.Load(); count != got {
		return fmt.Errorf("btree: leaf chain holds %d keys, tree believes %d", count, got)
	}
	return nil
}
