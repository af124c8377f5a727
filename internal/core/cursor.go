package core

import (
	"fmt"
	"iter"
	"runtime"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// Cursor streams rows from a Query. The iteration contract:
//
//	cur, err := tbl.Query(core.WithProjection("id", "karma"))
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//	    use(cur.RID(), cur.Row())
//	}
//	if err := cur.Err(); err != nil { ... }
//
// or, with Go 1.23 range-over-func:
//
//	for rid, row := range cur.All() { ... }
//
// Row returns cursor-owned scratch that is overwritten by the next
// Next: copy (Row.Clone) to retain — and from a QueryInto cursor, copy
// its strings and bytes too (see Table.QueryInto). On the cache-resident
// path — an index query whose projection is covered by key plus cached
// fields — iteration performs zero heap allocations per row once the
// scratch has grown. Cursors are not safe for concurrent use; the
// underlying table is (writers proceed while a cursor is open).
//
// Pin lifetime: an index cursor holds exactly one buffer-pool pin — on
// its current leaf page — between Next calls, and no latch (the leaf
// latch is taken only inside Next). The pin is released when the
// cursor is exhausted (Next returns false), when Close is called, or
// when an All loop ends, whichever comes first; a cursor abandoned
// mid-scan without Close leaks its pin and eventually starves the
// pool (Pool.PinnedFrames observes this in tests). Heap-order cursors
// hold no pin between calls — each page is snapshotted into cursor
// scratch under its latch and released before Next returns — and
// neither does a point cursor (see pointSource), whose one row is
// resolved inside Next.
//
// A serial index cursor is one allocation: the options it was opened
// with, its source (resolver and btree cursor included), its encoded
// bounds and its row scratch are all fields of the Cursor. A Cursor that
// is reopened (Table.QueryInto, Txn.QueryInto) is none.
type Cursor struct {
	src     rowSource
	rid     storage.RID
	row     tuple.Row
	key     []byte
	limit   int
	served  int
	reverse bool
	stats   QueryStats
	done    bool
	err     error

	cfg    queryConfig    // the options Query applied
	ix     indexSource    // src, when the cursor is a serial index scan
	rowArr [8]tuple.Value // backs row while it fits
}

// rowSource is one row-producing strategy behind a Cursor. step
// advances and fills c.rid / c.row / c.key (or sets c.err); close
// releases whatever the source holds (pins, child cursors).
type rowSource interface {
	step(c *Cursor) bool
	close()
}

// QueryStats counts how a cursor's rows were answered — the paper's
// cache-vs-heap hierarchy, observable per scan.
type QueryStats struct {
	// Rows served so far.
	Rows int64
	// CacheHits counts rows assembled from the index cache (no heap
	// page touched).
	CacheHits int64
	// HeapReads counts rows fetched from the heap.
	HeapReads int64
	// CacheFills counts cache entries installed after a heap answer. Only
	// a point query — WithPrefix binding every key field of a unique
	// index — fills; scans only probe.
	CacheFills int64
	// LeafFetches counts index leaf pages fetched (index queries).
	LeafFetches int64
}

// Add accumulates o's counters into s.
func (s *QueryStats) Add(o QueryStats) {
	s.Rows += o.Rows
	s.CacheHits += o.CacheHits
	s.HeapReads += o.HeapReads
	s.CacheFills += o.CacheFills
	s.LeafFetches += o.LeafFetches
}

// Next advances to the next row, returning false at the end of the
// result set or on error (check Err). Exhaustion releases the cursor's
// resources; Close is still safe afterwards.
func (c *Cursor) Next() bool {
	if c.done || c.err != nil {
		return false
	}
	if c.limit > 0 && c.served >= c.limit {
		c.finish()
		return false
	}
	if c.ix.r.view {
		c.ix.r.poison(c.row) // the previous row's views die here
	}
	if !c.src.step(c) {
		c.finish()
		return false
	}
	c.served++
	c.stats.Rows++
	return true
}

// Row returns the current row. It aliases cursor scratch: valid until
// the next Next or Close; Clone to retain.
func (c *Cursor) Row() tuple.Row { return c.row }

// RID returns the current row's physical address.
func (c *Cursor) RID() storage.RID { return c.rid }

// Key returns the current encoded index key for index-backed cursors
// (nil for heap-order scans). Like Row it aliases scratch; copy to
// retain. Merging iterators (hot/cold) order on it.
func (c *Cursor) Key() []byte { return c.key }

// Err returns the first error the cursor hit, if any.
func (c *Cursor) Err() error { return c.err }

// Reverse reports whether the cursor iterates in descending order.
// Merging iterators (hot/cold) use it to orient their comparisons.
func (c *Cursor) Reverse() bool { return c.reverse }

// Stats returns the running answer-path counters.
func (c *Cursor) Stats() QueryStats { return c.stats }

// SegmentStats returns per-segment answer-path counters for a parallel
// cursor (nil for serial cursors). The slice is complete — one entry
// per planned segment, summing to the serial scan's totals — once the
// cursor is exhausted or closed; reading it mid-scan returns a
// snapshot of finished work only.
func (c *Cursor) SegmentStats() []QueryStats {
	if p, ok := c.src.(*parallelSource); ok {
		return p.segmentStats()
	}
	return nil
}

// Close releases the cursor's resources (leaf pin included). It is
// idempotent — double Close and Close after exhaustion are no-ops —
// and returns the cursor's first error.
func (c *Cursor) Close() error {
	c.finish()
	return c.err
}

func (c *Cursor) finish() {
	if !c.done {
		c.done = true
		c.src.close()
		if c.ix.r.view {
			c.ix.r.poison(c.row)
		}
	}
}

// All adapts the cursor to a range-over-func iterator. The cursor is
// closed when the loop ends — including on early break, return, or
// panic — so the leaf pin cannot outlive the loop; check Err
// afterwards for mid-iteration failures. The yielded row is the same
// cursor scratch Row returns: Clone to retain it beyond the iteration.
func (c *Cursor) All() iter.Seq2[storage.RID, tuple.Row] {
	return func(yield func(storage.RID, tuple.Row) bool) {
		defer c.Close()
		for c.Next() {
			if !yield(c.rid, c.row) {
				return
			}
		}
	}
}

// --- index-order source --------------------------------------------------

// indexSource drives a pinned-frame btree cursor and turns each entry
// into a row through its resolver: from the index cache when the
// projection is covered and the entry is cached (hit and r.payload are
// set by VisitEntry, the entry visitor openIndexSource wires), from the
// heap otherwise. All scratch is cursor-owned and reused per row.
type indexSource struct {
	r    resolver
	bt   btree.Cursor
	gate cacheGate
	hit  bool
	// point is a pointSource's encoded search key; fill says whether its
	// heap answer installs the cache entry it missed.
	point []byte
	fill  bool
	// bounds hold the encoded key range until bt copies it in.
	bounds [2][32]byte
}

func (s *indexSource) step(c *Cursor) bool {
	for s.bt.Next() {
		c.stats.LeafFetches = s.bt.LeafFetches()
		row, rid, how, err := s.r.resolve(c.row, s.bt.Key(), s.bt.Value(), s.r.payload, s.hit)
		if err != nil {
			c.err = err
			return false
		}
		if how >= tierLeaf {
			c.row, c.rid, c.key = row, rid, s.bt.Key()
			return true
		}
	}
	c.err = s.bt.Err()
	return false
}

func (s *indexSource) close() { s.bt.Close() }

// --- point source --------------------------------------------------------

// lookupRetries bounds how often a point read re-descends after finding
// a stale entry (see tierStale) before it answers not-found.
const lookupRetries = 64

// pointSource is a serial index cursor whose bound binds every key field
// of a unique index by equality, so it names one entry. Its step is the
// paper's §2.1.1 point query in one VisitLeaf: find the entry, probe the
// leaf's cache, resolve, and after a heap answer fill the cache under the
// same latch — where an indexSource runs a btree cursor and only probes.
// It is the cursor's own indexSource under another name (no allocation,
// no pin held between calls); openPointSource sets Cursor.limit to 1.
type pointSource indexSource

func (s *pointSource) step(c *Cursor) bool {
	r, key := &s.r, s.point
	ix := r.ix
	for try := 0; ; try++ {
		var (
			row tuple.Row
			rid storage.RID
			how tier
			err error
		)
		verr := ix.tree.VisitLeaf(key, func(l *btree.Leaf) {
			c.stats.LeafFetches++
			packed, found := l.Find(key)
			if !found {
				return
			}
			var payload []byte
			prepared, hit := r.probe && ix.cache.Prepare(l), false
			if prepared {
				if payload, hit = ix.cache.LookupInto(r.payload[:0], l, packed); hit {
					r.payload = payload[:0]
				}
			}
			row, rid, how, err = r.resolve(c.row, key, packed, payload, hit)
			// The fill: a heap answer installs the entry it missed, when the
			// latch is exclusive (§2.1.3: give up rather than wait).
			if how == tierHeap && s.fill && l.Exclusive() && (prepared || ix.cache.Prepare(l)) &&
				ix.admit(l, packed, r.heapRow, &r.payload) {
				c.stats.CacheFills++
			}
		})
		if err == nil {
			err = verr
		}
		if err != nil {
			c.err = err
			return false
		}
		if how >= tierLeaf {
			c.row, c.rid, c.key = row, rid, key
			return true
		}
		// A stale entry at the latest state is a writer mid-move, about to
		// repoint it; under a pinned snapshot it stays stale.
		if how != tierStale || r.snap != snapLatest || try == lookupRetries {
			return false
		}
		runtime.Gosched()
	}
}

func (s *pointSource) close() {}

// --- heap-order source ---------------------------------------------------

// heapSource streams rows in heap order. It snapshots one page at a
// time under the page latch — record bytes are copied into a reused
// buffer, so no latch or pin is held while caller code runs — then
// decodes lazily per Next into reused scratch, the fields the projection
// and the filters read and no others. Pages appended after the query
// opened are not visited.
type heapSource struct {
	t       *Table
	pages   []storage.PageID
	reverse bool
	projIdx []int  // nil = all fields
	need    []bool // projIdx ∪ the filters' fields (nil = all)
	filters []boundFilter
	snap    uint64 // read timestamp (snapLatest outside transactions)

	pi     int // next index into pages to load
	recBuf []byte
	offs   []int // prefix offsets into recBuf; record i = recBuf[offs[i]:offs[i+1]]
	rids   []storage.RID
	i      int // next record to serve within the snapshot
	loaded bool
	decRow tuple.Row
}

func (s *heapSource) step(c *Cursor) bool {
	for {
		if !s.loaded || s.i < 0 || s.i >= len(s.rids) {
			if !s.loadNextPage(c) {
				return false
			}
			continue
		}
		rec := s.recBuf[s.offs[s.i]:s.offs[s.i+1]]
		c.rid = s.rids[s.i]
		if s.reverse {
			s.i--
		} else {
			s.i++
		}
		// Every version is its own heap record; serve the ones visible at
		// the read timestamp (for latest reads: the live ones).
		if !s.t.ridVisible(c.rid, s.snap) {
			continue
		}
		row, err := decodeFields(s.decRow, s.t.schema, rec, s.need, nil)
		if err != nil {
			c.err = fmt.Errorf("core: decoding %v: %w", c.rid, err)
			return false
		}
		s.decRow = row
		c.stats.HeapReads++
		if len(s.filters) > 0 && !passBound(row, s.filters) {
			continue
		}
		if s.projIdx == nil {
			c.row = row
		} else {
			c.row = projectRowInto(c.row, row, s.projIdx)
		}
		return true
	}
}

// loadNextPage snapshots the next page (in scan direction) that holds
// live records. Returns false when the file is exhausted or on error.
func (s *heapSource) loadNextPage(c *Cursor) bool {
	for s.pi < len(s.pages) {
		var id storage.PageID
		if s.reverse {
			id = s.pages[len(s.pages)-1-s.pi]
		} else {
			id = s.pages[s.pi]
		}
		s.pi++
		s.recBuf = s.recBuf[:0]
		s.offs = append(s.offs[:0], 0)
		s.rids = s.rids[:0]
		err := s.t.file.VisitPage(id, func(sp *storage.SlottedPage, _ bool) {
			sp.Records(func(slot uint16, rec []byte) bool {
				s.recBuf = append(s.recBuf, rec...)
				s.offs = append(s.offs, len(s.recBuf))
				s.rids = append(s.rids, storage.RID{Page: id, Slot: slot})
				return true
			})
		})
		if err != nil {
			c.err = err
			return false
		}
		if len(s.rids) == 0 {
			continue
		}
		s.loaded = true
		if s.reverse {
			s.i = len(s.rids) - 1
		} else {
			s.i = 0
		}
		return true
	}
	return false
}

func (s *heapSource) close() {}
