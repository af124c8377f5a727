package btree

import (
	"bytes"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// BulkLoad builds a tree from strictly increasing (key, value) pairs,
// filling every node to the given fill factor (fraction of usable page
// bytes, 0 < ff ≤ 1).
//
// The fill factor is the experiment knob of the whole paper: 0.68 is
// the canonical random-insert steady state [Yao 1978], 0.45 matches the
// paper's CarTel measurement, and 1.0 is the fully compacted read-only
// layout that leaves the index cache no room at all.
func BulkLoad(pool *buffer.Pool, ff float64, next func() (key []byte, value uint64, ok bool)) (*Tree, error) {
	if ff <= 0 || ff > 1 {
		return nil, fmt.Errorf("btree: fill factor must be in (0, 1], got %g", ff)
	}
	usable := pool.Disk().PageSize() - nodeHeaderSize - nodeFooterSize
	budget := int(float64(usable) * ff)

	leaves := levelBuilder{pool: pool, typ: nodeLeaf, budget: budget}
	var (
		prevKey []byte
		count   int64
		longest int
	)
	for {
		key, value, ok := next()
		if !ok {
			break
		}
		if len(key) == 0 {
			leaves.release()
			return nil, fmt.Errorf("btree: empty key in bulk load")
		}
		if prevKey != nil && bytes.Compare(prevKey, key) >= 0 {
			leaves.release()
			return nil, fmt.Errorf("btree: bulk load keys not strictly increasing at %q", key)
		}
		prevKey = append(prevKey[:0], key...)
		longest = max(longest, len(key))
		if err := leaves.add(key, value); err != nil {
			leaves.release()
			return nil, err
		}
		count++
	}
	if err := leaves.finish(); err != nil {
		return nil, err
	}
	if leaves.pages.Len() == 0 {
		// Empty input: fresh empty tree.
		return New(pool)
	}

	// Build internal levels bottom-up until a single node remains: each
	// page of a level is one entry (its first key, its id) of the next.
	level := &leaves.pages
	height := 1
	for level.Len() > 1 {
		parents := &levelBuilder{pool: pool, typ: nodeInternal, budget: budget}
		for i := 0; i < level.Len(); i++ {
			if err := parents.add(level.Key(i), level.Value(i)); err != nil {
				return nil, err
			}
		}
		if err := parents.finish(); err != nil {
			return nil, err
		}
		level = &parents.pages
		height++
	}

	t := &Tree{pool: pool, root: storage.PageID(level.Value(0))}
	t.height.Store(int64(height))
	t.numKeys.Store(count)
	// Seed the safe-node separator bound with the longest loaded key, so
	// post-load inserts get accurate safety checks from the start.
	t.maxSepLen.Store(int64(longest))
	return t, nil
}

// levelBuilder packs one tree level left to right. It stages a page's
// entries until the next one would take the page past the fill budget,
// then writes the page with its keys' shared prefix stored once — a
// bulk-built page knows its first and last key before it writes a cell.
type levelBuilder struct {
	pool   *buffer.Pool
	typ    uint16
	budget int
	// stage holds the page being built. An internal page's entry 0 is
	// its leftmost child, whose key the page does not store.
	stage EntryBlock
	// prev is the last leaf written, pinned until its right sibling
	// exists to link to.
	prev *buffer.Frame
	// pages lists every page written, as (first key, page id).
	pages EntryBlock
}

// stored returns the index of the first staged entry the page stores a
// key for.
func (b *levelBuilder) stored() int {
	if b.typ == nodeInternal {
		return 1
	}
	return 0
}

// add stages (key, value), first writing out the staged page when the
// key would take it past the budget.
func (b *levelBuilder) add(key []byte, value uint64) error {
	s := b.stored()
	if b.stage.Len() > s {
		count := b.stage.Len() - s + 1
		keyBytes := len(b.stage.keys) - int(b.stage.offs[s]) + len(key)
		if runBytes(count, keyBytes, b.stage.Key(s), key) > b.budget {
			if err := b.flush(); err != nil {
				return err
			}
		}
	}
	if b.typ == nodeLeaf && b.stage.Len() == 0 && runBytes(1, len(key), key, key) > b.budget {
		return fmt.Errorf("btree: key of %d bytes exceeds bulk-load budget", len(key))
	}
	b.stage.push(key, value)
	return nil
}

// flush writes the staged entries out as one page.
func (b *levelBuilder) flush() error {
	if b.stage.Len() == 0 {
		return nil
	}
	fr, err := b.pool.NewPage()
	if err != nil {
		return err
	}
	n := initNode(fr.Data(), b.typ)
	s := b.stored()
	if s == 1 {
		n.setLeftmostChild(b.stage.Value(0))
	}
	if err := n.fillFrom(&b.stage, s, b.stage.Len()); err != nil {
		b.pool.Unpin(fr, true)
		return fmt.Errorf("btree: bulk page build: %w", err)
	}
	if b.typ == nodeLeaf {
		if b.prev != nil {
			asNode(b.prev.Data()).setRightSibling(uint64(fr.ID()))
			n.setLeftSibling(uint64(b.prev.ID()))
			b.pool.Unpin(b.prev, true)
		}
		b.prev = fr
	} else {
		b.pool.Unpin(fr, true)
	}
	b.pages.push(b.stage.Key(0), uint64(fr.ID()))
	b.stage.Reset()
	return nil
}

// finish writes the last staged page and releases the level's pins.
func (b *levelBuilder) finish() error {
	err := b.flush()
	b.release()
	return err
}

// release unpins the last leaf written.
func (b *levelBuilder) release() {
	if b.prev != nil {
		b.pool.Unpin(b.prev, true)
		b.prev = nil
	}
}

// PairSource adapts a slice of (key, value) pairs into the iterator
// BulkLoad consumes.
type PairSource struct {
	Keys   [][]byte
	Values []uint64
	i      int
}

// Next implements the BulkLoad iterator contract.
func (p *PairSource) Next() ([]byte, uint64, bool) {
	if p.i >= len(p.Keys) {
		return nil, 0, false
	}
	k, v := p.Keys[p.i], p.Values[p.i]
	p.i++
	return k, v, true
}
