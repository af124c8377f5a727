package btree

import (
	"repro/internal/buffer"
	"repro/internal/storage"
)

// Cursor is a pinned-frame range iterator over the tree. It holds at
// most one leaf frame pinned between Next calls and follows sibling
// links instead of re-descending, so a full scan costs exactly one leaf
// fetch per leaf (the descent counts as the first leaf's fetch). The
// frame latch is only held inside Next, and the tree lock is only held
// during descents, so writers make progress while a scan is open.
//
// Concurrent mutation is handled by re-validation rather than blocking:
// every leaf carries a version counter bumped on directory reshuffles,
// and Next re-derives its position from the last served key whenever the
// version moved or a sibling boundary was crossed. A leaf split between
// two Next calls therefore never skips keys — the upper half is reached
// through the (unchanged) sibling chain, and already-served keys that a
// split copied rightward are skipped by the bound check.
//
// Key and value are copied into cursor-owned scratch that is reused
// across calls, so iteration allocates nothing per row once the scratch
// has grown to the largest key. Key() is valid until the next Next,
// Close, or tree mutation by the same goroutine.
//
// Close releases the pin but keeps the resume point: a closed cursor's
// Next re-seeks from the last served key and continues, which lets
// callers drop the pin across long pauses.
//
// nblb:carries-pin
type Cursor struct {
	t       *Tree
	start   []byte // inclusive lower bound, nil = first key; copied
	end     []byte // exclusive upper bound, nil = past the last key; copied
	reverse bool
	onEntry EntryVisitor

	fr      *buffer.Frame // current leaf, pinned across Next calls
	leaf    Leaf          // reusable view handed to onEntry
	pos     int           // next directory position to serve (forward only)
	stop    int           // first position at or past end (forward only)
	ver     uint32        // leaf version pos and stop were derived against
	stale   bool          // pos and stop must be re-derived before use
	key     []byte        // scratch: last served key, the resume point
	val     uint64
	started bool // at least one key served; key is valid
	done    bool
	err     error
	fetches int64

	// inline backs start, end and key while they fit, so a cursor over
	// short keys is one allocation.
	inline [3][keyInline]byte
}

// keyInline is the key length up to which a cursor stores its bounds
// and resume key inside itself.
const keyInline = 24

// CursorOption configures NewCursor.
type CursorOption func(*Cursor)

// Reverse makes the cursor iterate from the last key in range down to
// the first. Leaves chain in both directions, so reverse iteration is
// symmetric with forward: one sibling fetch per leaf, re-descending
// only when a concurrent split invalidates the pinned leaf.
func Reverse() CursorOption {
	return func(c *Cursor) { c.reverse = true }
}

// EntryVisitor is called for every served entry while the leaf is
// still latched (shared) and pinned — the hook the index cache uses to
// probe leaf free space during range scans without a second latch
// acquisition. VisitEntry must not retain l, must not mutate the page,
// and sees Exclusive() == false. An interface rather than a func, so a
// reader that is its own visitor binds itself without a closure.
type EntryVisitor interface {
	VisitEntry(l *Leaf, pos int)
}

// WithEntryVisitor registers v to run for every served entry.
func WithEntryVisitor(v EntryVisitor) CursorOption {
	return func(c *Cursor) { c.onEntry = v }
}

// NewCursor opens a cursor over start ≤ key < end (nil bounds are
// unbounded). The first Next performs the descent; constructing a
// cursor does no I/O.
func (t *Tree) NewCursor(start, end []byte, opts ...CursorOption) *Cursor {
	c := new(Cursor)
	t.OpenCursor(c, start, end, opts...)
	return c
}

// OpenCursor is NewCursor into c, which it overwrites: a reader that
// embeds its cursor opens it without a second allocation. c must not
// hold a pin (a fresh or closed cursor).
func (t *Tree) OpenCursor(c *Cursor, start, end []byte, opts ...CursorOption) {
	*c = Cursor{t: t}
	if len(start) > 0 {
		c.start = append(c.inline[0][:0], start...)
	}
	if len(end) > 0 {
		c.end = append(c.inline[1][:0], end...)
	}
	c.key = c.inline[2][:0]
	for _, o := range opts {
		o(c)
	}
}

// Key returns the current key. It aliases cursor scratch: valid until
// the next Next or Close; copy to retain.
func (c *Cursor) Key() []byte { return c.key }

// Value returns the current value (a packed RID in index leaves).
func (c *Cursor) Value() uint64 { return c.val }

// Err returns the first error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// LeafFetches returns how many leaf pages the cursor has fetched from
// the buffer pool — the "one fetch per leaf" invariant tests assert.
func (c *Cursor) LeafFetches() int64 { return c.fetches }

// Close releases the cursor's leaf pin. It is safe to call multiple
// times and safe to call mid-scan; the cursor stays resumable — a
// subsequent Next re-descends from the last served key.
func (c *Cursor) Close() {
	if c.fr != nil {
		c.t.pool.Unpin(c.fr, false)
		c.fr = nil
	}
}

// finish releases the pin and marks iteration complete.
func (c *Cursor) finish() {
	c.Close()
	c.done = true
}

// Next advances to the next key in range, returning false at the end of
// the range or on error (check Err).
func (c *Cursor) Next() bool {
	if c.done || c.err != nil {
		return false
	}
	if c.reverse {
		return c.nextReverse()
	}
	return c.nextForward()
}

// fail records err and terminates iteration.
func (c *Cursor) fail(err error) bool {
	c.err = err
	c.finish()
	return false
}

// --- forward ------------------------------------------------------------

func (c *Cursor) nextForward() bool {
	if c.fr == nil && !c.seekForward() {
		return false
	}
	for {
		c.fr.Latch.RLock()
		n := asNode(c.fr.Data())
		if !n.isLeaf() {
			// The pinned page stopped being a leaf — only the root does
			// that (in-place root growth). Its keys moved to a fresh left
			// page; re-descend from the resume point to find them.
			c.fr.Latch.RUnlock()
			c.t.pool.Unpin(c.fr, false)
			c.fr = nil
			if !c.seekForward() {
				return false
			}
			continue
		}
		c.revalidate(n)
		if c.pos < n.nKeys() {
			if c.pos >= c.stop {
				c.fr.Latch.RUnlock()
				c.finish()
				return false
			}
			c.serveLocked(n, c.pos)
			c.pos++
			c.fr.Latch.RUnlock()
			return true
		}
		next := storage.PageID(n.rightSibling())
		c.fr.Latch.RUnlock()
		c.t.pool.Unpin(c.fr, false)
		c.fr = nil
		if next == storage.InvalidPageID {
			c.done = true
			return false
		}
		fr, err := c.t.pool.Fetch(next)
		if err != nil {
			return c.fail(err)
		}
		c.fetches++
		c.fr = fr
		// A split may have copied already-served keys into this sibling;
		// re-derive the position from the resume point.
		c.stale = true
	}
}

// serveLocked copies out the entry at pos and runs the entry visitor.
// Caller holds the frame latch (shared).
func (c *Cursor) serveLocked(n node, pos int) {
	c.key = n.appendKey(c.key[:0], pos)
	c.val = n.value(pos)
	c.started = true
	if c.onEntry != nil {
		c.leaf = Leaf{fr: c.fr, n: n}
		c.onEntry.VisitEntry(&c.leaf, pos)
		c.leaf = Leaf{}
	}
}

// seekForward descends to the leaf covering the resume point (or the
// range start) and pins it.
func (c *Cursor) seekForward() bool {
	var (
		fr  *buffer.Frame
		err error
	)
	switch {
	case c.started:
		fr, _, err = c.t.descendFrame(func(n node) storage.PageID {
			return storage.PageID(n.childFor(c.key))
		})
	case c.start != nil:
		fr, _, err = c.t.descendFrame(func(n node) storage.PageID {
			return storage.PageID(n.childFor(c.start))
		})
	default:
		fr, _, err = c.t.leftmostFrame()
	}
	if err != nil {
		return c.fail(err)
	}
	c.fetches++
	c.fr = fr
	c.stale = true
	return true
}

// revalidate re-derives pos and stop if the leaf changed since they
// were derived: stop is where the range's end falls in this leaf, so
// serving an entry needs no key comparison. Caller holds the frame
// latch (shared).
func (c *Cursor) revalidate(n node) {
	if v := n.version(); c.stale || v != c.ver {
		c.pos = c.reposForward(n)
		c.stop = n.nKeys()
		if c.end != nil {
			c.stop, _ = n.search(c.end)
		}
		c.ver = v
		c.stale = false
	}
}

// reposForward derives the first directory position strictly past the
// resume point (or at the range start). Caller holds the frame latch.
func (c *Cursor) reposForward(n node) int {
	switch {
	case c.started:
		pos, found := n.search(c.key)
		if found {
			pos++
		}
		return pos
	case c.start != nil:
		pos, _ := n.search(c.start)
		return pos
	default:
		return 0
	}
}

// --- reverse ------------------------------------------------------------

// bound returns the current exclusive upper bound for reverse iteration:
// the last served key once started, else the range end (nil = +∞).
func (c *Cursor) bound() []byte {
	if c.started {
		return c.key
	}
	return c.end
}

func (c *Cursor) nextReverse() bool {
	if c.fr == nil && !c.seekReverse() {
		return false
	}
	for {
		c.fr.Latch.RLock()
		n := asNode(c.fr.Data())
		if !n.isLeaf() || n.version() != c.ver {
			// The leaf changed since it was positioned (or since the
			// descent observed it): a split may have moved our
			// predecessors to a right sibling this cursor has already
			// passed. Unlike the forward path — where the sibling chain
			// still leads to relocated keys — the only safe move is a
			// fresh descent against the current separators.
			c.fr.Latch.RUnlock()
			c.t.pool.Unpin(c.fr, false)
			c.fr = nil
			if !c.seekReverse() {
				return false
			}
			continue
		}
		pos := c.reposReverse(n)
		if pos >= 0 {
			if c.start != nil && n.cmpKey(pos, c.start) < 0 {
				c.fr.Latch.RUnlock()
				c.finish()
				return false
			}
			c.serveLocked(n, pos)
			c.fr.Latch.RUnlock()
			return true
		}
		// Nothing below the bound here (exhausted leaf, or one emptied by
		// deletes): step to the left sibling. The latch is dropped before
		// the sibling is acquired — multi-latch holders only ever go
		// left→right, so a reverse walk must not hold right while taking
		// left — and the hop is validated by checking that the sibling
		// still chains back to this leaf; a split in the gap fails the
		// check and forces a fresh descent.
		prevID := c.fr.ID()
		left := storage.PageID(n.leftSibling())
		c.fr.Latch.RUnlock()
		c.t.pool.Unpin(c.fr, false)
		c.fr = nil
		if left == storage.InvalidPageID {
			c.finish()
			return false
		}
		fr, err := c.t.pool.Fetch(left)
		if err != nil {
			return c.fail(err)
		}
		fr.Latch.RLock()
		ln := asNode(fr.Data())
		if !ln.isLeaf() || storage.PageID(ln.rightSibling()) != prevID {
			// The left sibling split (or the chain was rewired) between
			// reading the pointer and latching the page.
			fr.Latch.RUnlock()
			c.t.pool.Unpin(fr, false)
			if !c.seekReverse() {
				return false
			}
			continue
		}
		ver := ln.version()
		fr.Latch.RUnlock()
		c.fetches++
		c.fr = fr
		c.ver = ver
	}
}

// reposReverse derives the last directory position strictly below the
// bound, or -1 when the leaf holds none. Caller holds the frame latch.
func (c *Cursor) reposReverse(n node) int {
	b := c.bound()
	if b == nil {
		return n.nKeys() - 1
	}
	pos, _ := n.search(b)
	return pos - 1
}

// seekReverse descends to the leaf expected to hold the largest key
// strictly below the bound and pins it, recording the leaf version the
// descent observed so the serving latch can detect an intervening
// split. When delete-emptied leaves leave nothing below the bound on
// the landing leaf, nextReverse walks on through the left-sibling
// chain.
func (c *Cursor) seekReverse() bool {
	b := c.bound()
	var (
		fr  *buffer.Frame
		ver uint32
		err error
	)
	if b == nil {
		fr, ver, err = c.t.rightmostFrame()
	} else {
		fr, ver, err = c.t.leafFrameBefore(b)
	}
	if err != nil {
		return c.fail(err)
	}
	c.fetches++
	c.fr = fr
	c.ver = ver
	return true
}
