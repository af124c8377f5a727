package btree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// Tree is a B+Tree mapping memcomparable keys to uint64 values (packed
// RIDs), each page storing its values in the bytes its widest one
// needs. Concurrency is per-node latch crabbing (Bayer/Schkolnick), not
// a tree-wide lock: many readers AND many writers proceed in parallel,
// serialized only on the individual pages they touch.
//
// The latch protocol, top to bottom:
//
//   - Latch order is strictly root→leaf, and left→right among leaves.
//     No code path acquires a page latch while holding a latch of a
//     deeper or righter page's, so waits cannot cycle.
//   - Readers couple shared latches: the child's latch is acquired
//     before the parent's is released, so a descent can never be routed
//     by a separator that a concurrent split is rewriting.
//   - Every write is a sorted run (ApplyRun; Insert and Delete are runs
//     of one). It descends optimistically — shared latches down the
//     internal levels, exclusive latch on the leaf only. If the leaf
//     absorbs the entry (a delete always does: nodes never merge), that
//     is the whole critical section: one leaf.
//   - Only when the leaf must split does the writer retry
//     pessimistically: exclusive latches crabbed down the whole path,
//     releasing all ancestors the moment a child is "safe" (cannot
//     split), so the retained latch set is exactly the split's blast
//     radius. LatchRetries counts these fallbacks.
//   - The safe-node rule: a leaf is safe if the incoming entry fits; an
//     internal node is safe if it can absorb a separator of the page's
//     maximum key length (maxKeyLen) whose child id takes the widest
//     value width. Separators are always copies of existing keys, and
//     every write path refuses a longer key, so a "safe" verdict is
//     never wrong.
//   - The root page id is IMMUTABLE (B-link-style root growth): a root
//     split copies the halved root into a fresh left page and
//     re-initialises the root page itself as an internal node over the
//     two halves, all under the root page latch the pessimistic
//     descent already holds. There is no tree-wide metadata lock:
//     descents are type-driven — they look at the latched page to tell
//     leaf from internal — so a root split costs exactly the latches a
//     leaf split does, even under writer storms.
//
// Deletes do not merge or rebalance nodes — matching the systems the
// paper measures, where deletes and updates erode fill factor over time
// (the CarTel database sat at 45%). That erosion is precisely the waste
// the index cache recycles, so preserving it is a feature. It also
// makes deletes structurally trivial: a delete is always leaf-local,
// so the delete path never needs the pessimistic fallback.
type Tree struct {
	pool *buffer.Pool

	// root never changes after New/Open (growth happens in place), so
	// reading it needs no synchronization.
	root   storage.PageID
	height atomic.Int64 // levels, 1 = root is a leaf; reporting only

	numKeys atomic.Int64
	// latchRetries counts optimistic descents that found a full leaf
	// and fell back to the pessimistic full-path hold — the crabbing
	// contention metric the served benchmark reports as
	// btree.latch_retries.
	latchRetries atomic.Int64
}

// New creates an empty tree whose root is a fresh leaf.
func New(pool *buffer.Pool) (*Tree, error) {
	fr, err := pool.NewPage()
	if err != nil {
		return nil, fmt.Errorf("btree: allocating root: %w", err)
	}
	initNode(fr.Data(), nodeLeaf)
	root := fr.ID()
	pool.Unpin(fr, true)
	t := &Tree{pool: pool, root: root}
	t.height.Store(1)
	return t, nil
}

// Open re-attaches to an existing tree given its root (for reopening
// file-backed trees). It reads the root page first: a root that is no
// index page fails the open instead of being misread.
func Open(pool *buffer.Pool, root storage.PageID, height int, numKeys int64) (*Tree, error) {
	fr, err := pool.Fetch(root)
	if err != nil {
		return nil, fmt.Errorf("btree: reading root %v: %w", root, err)
	}
	fr.Latch.RLock()
	kind := asNode(fr.Data()).typ()
	fr.Latch.RUnlock()
	pool.Unpin(fr, false)
	if kind != nodeLeaf && kind != nodeInternal {
		return nil, fmt.Errorf("btree: root %v is not an index page: its kind is %v", root, kind)
	}
	t := &Tree{pool: pool, root: root}
	t.height.Store(int64(height))
	t.numKeys.Store(numKeys)
	return t, nil
}

// Root returns the root page id (fixed for the tree's lifetime).
func (t *Tree) Root() storage.PageID { return t.root }

// Height returns the number of levels (1 = just a leaf).
func (t *Tree) Height() int { return int(t.height.Load()) }

// Len returns the number of keys.
func (t *Tree) Len() int64 { return t.numKeys.Load() }

// LatchRetries returns how many writes abandoned an optimistic descent
// and retried with the pessimistic full-path hold (i.e. how many leaf
// splits the crabbing protocol paid for).
func (t *Tree) LatchRetries() int64 { return t.latchRetries.Load() }

// maxKeyLen bounds keys so a handful of cells always fit per page. It
// is also the safe-node rule's separator bound.
func (t *Tree) maxKeyLen() int {
	return (t.pool.Disk().PageSize() - nodeHeaderSize - nodeFooterSize) / 4
}

// leafLatchMode selects how a latched descent acquires the leaf latch.
type leafLatchMode int

const (
	// leafShared takes the leaf latch shared (point reads).
	leafShared leafLatchMode = iota
	// leafExclusive takes the leaf latch exclusively (writes).
	leafExclusive
	// leafVisit tries exclusive without blocking, falling back to
	// shared — the paper's give-up protocol for index-cache writes.
	leafVisit
)

// descendLatched walks from the root to the leaf chosen by pick with
// read-coupled shared latches: each child is latched before its parent
// is released, so no split can reroute the descent mid-flight. The
// descent is type-driven — whether a page is the leaf comes from the
// latched page itself, never from a height snapshot — because the root
// page can turn from leaf into internal in place (root growth) at any
// moment a latch is not held on it. Returns the pinned, latched leaf
// frame and whether its latch is exclusive; the caller must unlatch
// (per mode) and Unpin exactly once. pick stays on the stack (never
// retained), keeping point lookups allocation-free.
//
// Latch escalation: the shared probe that discovers a page is the leaf
// must be upgraded for leafExclusive/leafVisit, and Go's RWMutex has no
// atomic upgrade, so the shared latch is dropped first.
//
//   - At a NON-ROOT leaf the parent's shared latch is still held across
//     the gap: a leaf is only ever split by a writer holding its parent
//     exclusively (insertLatched retains the parent whenever the leaf
//     is unsafe), so the leaf may absorb leaf-local writes in the gap
//     but cannot be restructured or change type.
//   - At the ROOT there is no parent, but none is needed: the root page
//     IS the root forever. The only hazard is the root growing into an
//     internal node inside the gap, so the type is re-checked after
//     escalating and the descent demotes back to shared and continues
//     downward if it did.
func (t *Tree) descendLatched(pick func(n node) storage.PageID, mode leafLatchMode) (*buffer.Frame, bool, error) {
	fr, err := t.pool.Fetch(t.root)
	if err != nil {
		return nil, false, err
	}
	fr.Latch.RLock()
	n := asNode(fr.Data())
	for n.isLeaf() {
		if mode == leafShared {
			return fr, false, nil
		}
		fr.Latch.RUnlock()
		if mode == leafVisit {
			if !fr.Latch.TryLock() {
				fr.Latch.RLock()
				if n = asNode(fr.Data()); n.isLeaf() {
					return fr, false, nil
				}
				continue // grew mid-escalation: already shared, descend
			}
		} else {
			fr.Latch.Lock()
		}
		if n = asNode(fr.Data()); n.isLeaf() {
			return fr, true, nil
		}
		// The root grew while unlatched; demote and descend.
		fr.Latch.Unlock()
		fr.Latch.RLock()
		n = asNode(fr.Data())
	}
	for {
		child := pick(n)
		cfr, err := t.pool.Fetch(child)
		if err != nil {
			fr.Latch.RUnlock()
			t.pool.Unpin(fr, false)
			return nil, false, err
		}
		cfr.Latch.RLock()
		cn := asNode(cfr.Data())
		if !cn.isLeaf() {
			fr.Latch.RUnlock()
			t.pool.Unpin(fr, false)
			fr, n = cfr, cn
			continue
		}
		exclusive := false
		switch mode {
		case leafExclusive:
			cfr.Latch.RUnlock()
			cfr.Latch.Lock()
			exclusive = true
		case leafVisit:
			cfr.Latch.RUnlock()
			if cfr.Latch.TryLock() {
				exclusive = true
			} else {
				cfr.Latch.RLock()
			}
		}
		fr.Latch.RUnlock()
		t.pool.Unpin(fr, false)
		return cfr, exclusive, nil
	}
}

// leafExclusive crab-descends to the leaf covering key and returns it
// pinned and EXCLUSIVELY latched: ApplyRun's optimistic leaf run.
func (t *Tree) leafExclusive(key []byte) (*buffer.Frame, error) {
	fr, _, err := t.descendLatched(func(n node) storage.PageID {
		return storage.PageID(n.childFor(key))
	}, leafExclusive)
	return fr, err
}

// Search returns the value stored under key. The value is read under
// the leaf's shared latch at the end of a read-coupled descent, so a
// concurrent split can never hide the key.
func (t *Tree) Search(key []byte) (uint64, bool, error) {
	fr, _, err := t.descendLatched(func(n node) storage.PageID {
		return storage.PageID(n.childFor(key))
	}, leafShared)
	if err != nil {
		return 0, false, err
	}
	n := asNode(fr.Data())
	pos, found := n.search(key)
	var v uint64
	if found {
		v = n.value(pos)
	}
	fr.Latch.RUnlock()
	t.pool.Unpin(fr, false)
	return v, found, nil
}

// Insert stores value under key, replacing any existing value (upsert).
// It reports whether the key was newly inserted. It is a run of one
// (ApplyRun).
func (t *Tree) Insert(key []byte, value uint64) (bool, error) {
	run := [1]RunEntry{{Key: key, Value: value, Op: RunUpsert}}
	if _, err := t.ApplyRun(run[:]); err != nil {
		return false, err
	}
	return !run[0].Existed, nil
}

// Delete removes key and reports whether it was present. It is a run of
// one (ApplyRun): nodes are not merged (see the type comment), so a
// delete is one exclusive leaf latch.
func (t *Tree) Delete(key []byte) (bool, error) {
	run := [1]RunEntry{{Key: key, Op: RunDelete}}
	if _, err := t.ApplyRun(run[:]); err != nil {
		return false, err
	}
	return run[0].Existed, nil
}

// latchedNode is one exclusively latched, pinned node on a pessimistic
// descent's retained path.
//
// nblb:carries-pin
type latchedNode struct {
	fr *buffer.Frame
	n  node
}

// insertPessimistic is the split path: crab exclusive latches from the
// root down, releasing all retained ancestors whenever a child is safe,
// so on arrival the latch set is exactly the nodes a split can touch.
// Because the root grows in place under its own page latch, an unsafe
// root needs no special lock — it simply stays on the retained path.
// It puts value under key — an upsert, or an insert only when ifAbsent
// — and returns whether the key was new and, when it was not, the value
// it held.
func (t *Tree) insertPessimistic(key []byte, value uint64, ifAbsent bool) (inserted bool, prev uint64, err error) {
	// An attempt ends undone when its split could not take the put
	// (splitLeafPut): the leaf then split as it stood, and each such
	// split leaves the key's leaf fewer entries to widen.
	for attempt := 0; attempt < 64; attempt++ {
		ins, prev, done, err := t.insertLatched(key, value, ifAbsent)
		if done || err != nil {
			return ins, prev, err
		}
	}
	return false, 0, fmt.Errorf("btree: pessimistic insert failed to settle")
}

// insertLatched performs one pessimistic descent+put. It returns
// done=false when the leaf had to split without the put; the caller
// then tries again. An unsafe root needs no special handling — it stays
// on the retained path, exclusively latched, and the grow branch
// rebuilds it in place.
func (t *Tree) insertLatched(key []byte, value uint64, ifAbsent bool) (inserted bool, prev uint64, done bool, err error) {
	var pathArr [8]latchedNode
	path := pathArr[:0]
	releasePath := func(dirty bool) {
		for _, e := range path {
			e.fr.Latch.Unlock()
			t.pool.Unpin(e.fr, dirty)
		}
		path = path[:0]
	}

	fr, err := t.pool.Fetch(t.root)
	if err != nil {
		return false, 0, false, err
	}
	fr.Latch.Lock()
	n := asNode(fr.Data())
	path = append(path, latchedNode{fr, n})

	for !n.isLeaf() {
		if t.nodeSafe(n, key, value) {
			// Everything above n can no longer be touched by a split.
			above := path[:len(path)-1]
			for _, e := range above {
				e.fr.Latch.Unlock()
				t.pool.Unpin(e.fr, false)
			}
			path = append(path[:0], path[len(path)-1])
		}
		child := storage.PageID(n.childFor(key))
		cfr, err := t.pool.Fetch(child)
		if err != nil {
			releasePath(false)
			return false, 0, false, err
		}
		cfr.Latch.Lock()
		n = asNode(cfr.Data())
		path = append(path, latchedNode{cfr, n})
	}
	// The leaf is the last path entry; if it is safe, drop its ancestors
	// too (the common shape here is "leaf full", but a concurrent delete
	// may have made room since the optimistic attempt).
	leaf := path[len(path)-1]
	if t.nodeSafe(leaf.n, key, value) && len(path) > 1 {
		for _, e := range path[:len(path)-1] {
			e.fr.Latch.Unlock()
			t.pool.Unpin(e.fr, false)
		}
		path = append(path[:0], leaf)
	}

	// releaseLeafDirty unpins the leaf dirty and any retained ancestors
	// clean — the shape for leaf-local outcomes, where ancestors were
	// latched but never touched.
	releaseLeafDirty := func() {
		for _, e := range path[:len(path)-1] {
			e.fr.Latch.Unlock()
			t.pool.Unpin(e.fr, false)
		}
		leaf.fr.Latch.Unlock()
		t.pool.Unpin(leaf.fr, true)
		path = path[:0]
	}
	pos, found := leaf.n.search(key)
	if found {
		prev = leaf.n.value(pos)
		if ifAbsent {
			releasePath(false)
			return false, prev, true, nil
		}
		if leaf.n.setValue(pos, value) == nil {
			releaseLeafDirty()
			return false, prev, true, nil
		}
	} else if err := leaf.n.insertAt(pos, key, value); err == nil {
		releaseLeafDirty()
		t.numKeys.Add(1)
		return true, 0, true, nil
	}

	// Split the leaf and propagate up through the retained path. All
	// latches stay held until the whole multi-level update is complete:
	// readers cannot pass the deepest retained ancestor meanwhile, so
	// they never observe a half-linked split.
	sep, rightID, placed, err := t.splitLeafPut(leaf, key, value, found)
	if err != nil {
		// The split may have mutated the leaf before failing; release
		// everything dirty so whatever state exists reaches disk rather
		// than desyncing from the sibling chain.
		releasePath(true)
		return false, 0, false, err
	}
	// settle ends a split that reached a node which absorbed it: the put
	// landed, or the leaf split without it and the caller tries again.
	inserted = placed && !found
	settle := func() (bool, uint64, bool, error) {
		if inserted {
			t.numKeys.Add(1)
		}
		return inserted, prev, placed, nil
	}
	// releaseMutated unpins path entries from dirtyFrom on dirty (they
	// were split or received the separator) and shallower ones clean
	// (latched but never touched — an ancestor unsafe by the key bound
	// can still absorb the shorter actual separator, ending the chain
	// early).
	releaseMutated := func(dirtyFrom int) {
		for j, e := range path {
			e.fr.Latch.Unlock()
			t.pool.Unpin(e.fr, j >= dirtyFrom)
		}
		path = path[:0]
	}
	for i := len(path) - 2; i >= 0; i-- {
		parent := path[i]
		ppos, pfound := parent.n.search(sep)
		if pfound {
			releaseMutated(i + 1)
			return false, 0, false, fmt.Errorf("btree: separator key already in parent")
		}
		if err := parent.n.insertAt(ppos, sep, uint64(rightID)); err == nil {
			releaseMutated(i)
			return settle()
		}
		sep, rightID, err = t.splitInternalInsert(parent, sep, rightID)
		if err != nil {
			releasePath(true)
			return false, 0, false, err
		}
	}
	// The split propagated past the whole retained path — only possible
	// when path[0] is the root (ancestors are only released below safe
	// nodes, and a safe node absorbs the separator). Grow IN PLACE: the
	// root page id is immutable, so the halved root's content moves to a
	// fresh left page L and the root page itself is re-initialised as an
	// internal node [L, sep → right] — all under the root page latch
	// this descent already holds exclusively. A raw page copy is legal
	// because node pages never store their own id.
	rootE := path[0]
	lfr, err := t.pool.NewPage()
	if err != nil {
		releasePath(true)
		return false, 0, false, err
	}
	copy(lfr.Data(), rootE.fr.Data())
	wasLeaf := rootE.n.isLeaf()
	oldVer := rootE.n.version()
	leftID := lfr.ID()
	t.pool.Unpin(lfr, true)
	if wasLeaf {
		// The right half (created by splitLeafInsert) chains back to the
		// root page; repoint it at L before the root stops being a leaf.
		// Latch order holds: root first, then a deeper page — the same
		// root→leaf direction every descent uses.
		rfr, err := t.pool.Fetch(rightID)
		if err != nil {
			releasePath(true)
			return false, 0, false, err
		}
		rfr.Latch.Lock()
		asNode(rfr.Data()).setLeftSibling(uint64(leftID))
		rfr.Latch.Unlock()
		t.pool.Unpin(rfr, true)
	}
	rn := initNode(rootE.fr.Data(), nodeInternal)
	rn.setLeftmostChild(uint64(leftID))
	rn.clearCells(sep, valueWidth(uint64(rightID)))
	if err := rn.insertAt(0, sep, uint64(rightID)); err != nil {
		releasePath(true)
		return false, 0, false, fmt.Errorf("btree: root grow insert: %w", err)
	}
	// Cursors pinned at the old root-as-leaf revalidate on the version
	// counter; carry it forward (bumped) across the re-init so they can
	// never mistake the internal page for the leaf they left.
	rn.setVersion(oldVer + 1)
	t.height.Add(1)
	releasePath(true)
	return settle()
}

// nodeSafe reports whether a node cannot split from this put: a leaf
// must fit the incoming entry as a new one (an upsert of a present key
// needs less), an internal node must fit a separator of the longest key
// the tree accepts from its child covering key.
func (t *Tree) nodeSafe(n node, key []byte, value uint64) bool {
	if n.isLeaf() {
		return n.canInsert(key, value)
	}
	return n.canAbsorb(key, t.maxKeyLen())
}

// splitStage recycles the block a split stages a full node's entries
// through, so after warmup a split copies keys without allocating
// beyond the separator it returns.
var splitStage = sync.Pool{New: func() any { return new(EntryBlock) }}

// stageMerged copies n's entries into b with (key, value) merged in at
// its sorted position ins — in place of entry ins when replace, which
// holds key — the sequence a split distributes.
func stageMerged(b *EntryBlock, n node, ins int, key []byte, value uint64, replace bool) {
	b.Reset()
	for i := 0; i < n.nKeys(); i++ {
		if i == ins {
			b.push(key, value)
			if replace {
				continue
			}
		}
		b.pushKey(n, i)
	}
	if ins == n.nKeys() {
		b.push(key, value)
	}
}

// splitCut returns where a full node's staged entries split: the left
// page takes entries [0, cut) and the right page the rest — all of them
// in a leaf; in an internal node entry cut moves up as the separator
// instead. Each side keeps at least one key. Of the cuts that leave
// both pages within usable bytes it takes the one whose fuller page is
// emptiest, sizing each page with its own shared prefix stored once and
// its own value width — so a key that shares little with the others,
// or a value much wider than theirs, is split off from the entries it
// would make longer. Entries as a page held them always have a cut:
// each side takes no more than the page did. A merged entry whose value
// is far wider than the page's may have none (splitLeafPut).
func splitCut(b *EntryBlock, leaf bool, usable int) (int, error) {
	m := b.Len()
	total := len(b.keys)
	skip, last := 0, m-1 // skip: the moved-up entry; last: the final legal cut
	if !leaf {
		skip, last = 1, m-2
	}
	// b.widths[i] is the widest value among entries i..m-1: the width
	// of a right page starting there.
	b.widths = append(b.widths[:0], make([]uint8, m+1)...)
	b.widths[m] = 1
	for i := m - 1; i >= 0; i-- {
		b.widths[i] = max(b.widths[i+1], uint8(valueWidth(b.vals[i])))
	}
	best, bestSize, lw := -1, 0, 1
	for cut := 1; cut <= last; cut++ {
		lw = max(lw, valueWidth(b.vals[cut-1]))
		leftBytes := int(b.offs[cut])
		rightBytes := total - leftBytes - skip*len(b.Key(cut))
		l := runBytes(cut, leftBytes, lw, b.Key(0), b.Key(cut-1))
		r := runBytes(m-cut-skip, rightBytes, int(b.widths[cut+skip]), b.Key(cut+skip), b.Key(m-1))
		if size := max(l, r); size <= usable && (best < 0 || size < bestSize) {
			best, bestSize = cut, size
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("btree: no split of a %d-entry node fits", m)
	}
	return best, nil
}

// splitLeafPut splits the exclusively latched leaf around putting
// (key, value) — a new entry, or in place of the entry holding key when
// found: the leaf's entries and the put are staged in order and
// redistributed over the leaf and a fresh right page, each under its
// own shared prefix and value width. When no cut fits both pages (the
// put's value is so much wider than the page's that neither half has
// room to widen), it splits the leaf as it stands and reports placed =
// false: the caller puts again into a leaf of fewer entries. It wires
// all sibling links — including the old right neighbor's left pointer,
// taken exclusively in left→right order — and returns the separator
// (copied) and new page id for propagation. leaf stays latched; the
// caller releases it dirty.
func (t *Tree) splitLeafPut(leaf latchedNode, key []byte, value uint64, found bool) (sep []byte, rightID storage.PageID, placed bool, err error) {
	n := leaf.n
	b := splitStage.Get().(*EntryBlock)
	defer splitStage.Put(b)
	insPos, _ := n.search(key)
	stageMerged(b, n, insPos, key, value, found)
	cut, err := splitCut(b, true, n.usableBytes())
	placed = err == nil
	if !placed {
		b.Reset()
		for i := 0; i < n.nKeys(); i++ {
			b.pushKey(n, i)
		}
		cut, err = splitCut(b, true, n.usableBytes())
	}
	if err != nil {
		return nil, storage.InvalidPageID, false, err
	}
	rfr, err := t.pool.NewPage()
	if err != nil {
		return nil, storage.InvalidPageID, false, err
	}
	rn := initNode(rfr.Data(), nodeLeaf)
	if err := rn.fillFrom(b, cut, b.Len()); err != nil {
		t.pool.Unpin(rfr, false)
		return nil, storage.InvalidPageID, false, fmt.Errorf("btree: split copy: %w", err)
	}
	if err := n.fillFrom(b, 0, cut); err != nil {
		t.pool.Unpin(rfr, false)
		return nil, storage.InvalidPageID, false, fmt.Errorf("btree: split copy: %w", err)
	}
	// Wire the chain in both directions. The new node is unreachable by
	// descent until the parent is updated (the caller holds the parent
	// exclusively), but reverse scans can reach it through the old right
	// neighbor's left pointer the moment it is updated — by then the
	// node is fully formed.
	oldRight := n.rightSibling()
	rn.setRightSibling(oldRight)
	rn.setLeftSibling(uint64(leaf.fr.ID()))
	n.setRightSibling(uint64(rfr.ID()))
	sep = append([]byte(nil), b.Key(cut)...)
	rightID = rfr.ID()
	t.pool.Unpin(rfr, true)

	if oldRight != uint64(storage.InvalidPageID) {
		// Left→right latch order: we hold the left leaf and acquire its
		// right neighbor, the same direction every multi-leaf holder
		// uses, so this cannot deadlock against another split.
		ofr, err := t.pool.Fetch(storage.PageID(oldRight))
		if err != nil {
			return nil, storage.InvalidPageID, false, err
		}
		ofr.Latch.Lock()
		asNode(ofr.Data()).setLeftSibling(uint64(rightID))
		ofr.Latch.Unlock()
		t.pool.Unpin(ofr, true)
	}
	return sep, rightID, placed, nil
}

// splitInternalInsert splits the exclusively latched internal node
// around (sep → childID): the merged entries are staged in order, the
// one at the cut moves up, and the rest are redistributed over the node
// and a fresh right page. Returns the new separator (copied) and right
// node id for the next level up. parent stays latched; the caller
// releases it dirty.
func (t *Tree) splitInternalInsert(parent latchedNode, sep []byte, childID storage.PageID) ([]byte, storage.PageID, error) {
	n := parent.n
	b := splitStage.Get().(*EntryBlock)
	defer splitStage.Put(b)
	insPos, _ := n.search(sep)
	stageMerged(b, n, insPos, sep, uint64(childID), false)
	cut, err := splitCut(b, false, n.usableBytes())
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	rfr, err := t.pool.NewPage()
	if err != nil {
		return nil, storage.InvalidPageID, err
	}
	rn := initNode(rfr.Data(), nodeInternal)
	rn.setLeftmostChild(b.Value(cut))
	if err := rn.fillFrom(b, cut+1, b.Len()); err != nil {
		t.pool.Unpin(rfr, false)
		return nil, storage.InvalidPageID, fmt.Errorf("btree: split copy: %w", err)
	}
	if err := n.fillFrom(b, 0, cut); err != nil {
		t.pool.Unpin(rfr, false)
		return nil, storage.InvalidPageID, fmt.Errorf("btree: split copy: %w", err)
	}
	upSep := append([]byte(nil), b.Key(cut)...)
	rightID := rfr.ID()
	t.pool.Unpin(rfr, true)
	return upSep, rightID, nil
}

// leftmostLeaf descends to the first leaf.
func (t *Tree) leftmostLeaf() (storage.PageID, error) {
	fr, _, err := t.leftmostFrame()
	if err != nil {
		return storage.InvalidPageID, err
	}
	id := fr.ID()
	t.pool.Unpin(fr, false)
	return id, nil
}

// leftmostFrame descends to the first leaf and returns it STILL PINNED
// (no latch held) plus the leaf version observed under the descent's
// latch. Caller must Unpin exactly once.
func (t *Tree) leftmostFrame() (*buffer.Frame, uint32, error) {
	return t.descendFrame(func(n node) storage.PageID {
		return storage.PageID(n.leftmostChild())
	})
}

// rightmostFrame descends to the last leaf and returns it STILL PINNED
// (no latch held) plus the observed leaf version. Caller must Unpin
// exactly once.
func (t *Tree) rightmostFrame() (*buffer.Frame, uint32, error) {
	return t.descendFrame(func(n node) storage.PageID {
		if k := n.nKeys(); k > 0 {
			return storage.PageID(n.value(k - 1))
		}
		return storage.PageID(n.leftmostChild())
	})
}

// leafFrameBefore descends to the leaf covering the largest key
// strictly less than bound and returns it STILL PINNED (no latch held)
// plus the observed leaf version. Caller must Unpin exactly once. When
// no key below bound exists the returned leaf simply yields no
// position; callers handle that (reverse cursors fall back to the
// left-sibling walk).
func (t *Tree) leafFrameBefore(bound []byte) (*buffer.Frame, uint32, error) {
	return t.descendFrame(func(n node) storage.PageID {
		pos, _ := n.search(bound)
		if pos == 0 {
			return storage.PageID(n.leftmostChild())
		}
		return storage.PageID(n.value(pos - 1))
	})
}

// descendFrame walks from the root to a leaf with read-coupled shared
// latches — each child latched before its parent is released, starting
// from the root page's own latch (there is no tree-wide metadata lock)
// — choosing the child
// via pick at each internal node. It returns the leaf pinned together
// with its version as observed under the descent's latch: a caller that
// later re-latches the leaf and sees the same version knows the leaf is
// exactly what this descent targeted; cursors use that to detect splits
// sneaking in between the descent and the first read.
func (t *Tree) descendFrame(pick func(n node) storage.PageID) (*buffer.Frame, uint32, error) {
	fr, _, err := t.descendLatched(pick, leafShared)
	if err != nil {
		return nil, 0, err
	}
	ver := asNode(fr.Data()).version()
	fr.Latch.RUnlock()
	return fr, ver, nil
}
