package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// MergeMode selects how a parallel query's segment streams combine.
type MergeMode int

const (
	// MergeOrdered serves rows in global key order by running a loser
	// tree over the segment heads. Throughput is bounded by the merge
	// (one consumer goroutine), but the cursor contract is identical to
	// a serial index scan.
	MergeOrdered MergeMode = iota
	// MergeUnordered interleaves blocks as workers finish them — no
	// cross-segment ordering, maximum scan throughput. Rows within one
	// segment still arrive in key order.
	MergeUnordered
)

// blockRows is the vectorization width: entries fetched per leaf-latch
// acquisition and rows shipped per channel operation. 256 rows keeps a
// block's value slab around 10KB for narrow projections — big enough to
// amortize latch and channel costs, small enough to stay cache-warm.
const blockRows = 256

// segmentsPerWorker oversubscribes unordered plans so the dynamic
// claim evens out segment-size skew.
const segmentsPerWorker = 4

// RowBlock is a vectorized batch of assembled rows shipped from a scan
// worker to the consuming cursor: a columnar-ish slab of n*width
// values (row i is a 3-index sub-slice, so rows can't append over each
// other), the encoded keys delimited by offsets, RIDs, and the stats
// delta attributable to the block. Blocks are pooled; a consumed block
// is recycled as soon as the cursor steps past its last row.
type RowBlock struct {
	width int
	vals  []tuple.Value
	keys  []byte
	koffs []int32
	rids  []storage.RID
	n     int
	seg   int
	stats QueryStats
}

func (b *RowBlock) reset(width, seg int) {
	b.width = width
	b.seg = seg
	b.n = 0
	b.vals = b.vals[:0]
	b.keys = b.keys[:0]
	b.koffs = b.koffs[:0]
	b.rids = b.rids[:0]
	b.stats = QueryStats{}
}

// nextRow returns the slab slice for the next (uncommitted) row. A row
// rejected by a filter is simply never committed; the same slice is
// handed out again.
func (b *RowBlock) nextRow() tuple.Row {
	lo := b.n * b.width
	hi := lo + b.width
	for len(b.vals) < hi {
		b.vals = append(b.vals, tuple.Value{})
	}
	return b.vals[lo:hi:hi]
}

// commit finalizes the row last handed out by nextRow.
func (b *RowBlock) commit(key []byte, rid storage.RID) {
	if len(b.koffs) == 0 {
		b.koffs = append(b.koffs, 0)
	}
	b.keys = append(b.keys, key...)
	b.koffs = append(b.koffs, int32(len(b.keys)))
	b.rids = append(b.rids, rid)
	b.n++
}

func (b *RowBlock) row(i int) tuple.Row {
	lo := i * b.width
	hi := lo + b.width
	return b.vals[lo:hi:hi]
}

func (b *RowBlock) key(i int) []byte { return b.keys[b.koffs[i]:b.koffs[i+1]] }

var rowBlockPool = sync.Pool{New: func() any { return new(RowBlock) }}

// parallelQuery plans the range into per-subtree segments and opens a
// cursor over the merged worker streams.
func (ix *Index) parallelQuery(cfg queryConfig, plan *projPlan, fp *filterPlan, start, end []byte) (*Cursor, error) {
	if cfg.merge != MergeOrdered && cfg.merge != MergeUnordered {
		return nil, fmt.Errorf("core: unknown merge mode %d", int(cfg.merge))
	}
	n := cfg.parallel
	target := n
	if cfg.merge == MergeUnordered {
		target = n * segmentsPerWorker
	}
	segs, err := ix.tree.PlanSegments(start, end, target)
	if err != nil {
		return nil, err
	}
	p := &parallelSource{
		ix:     ix,
		plan:   plan,
		fp:     fp,
		policy: cfg.policy,
		merge:  cfg.merge,
		segs:   segs,
		width:  len(plan.idx),
		snap:   cfg.snapshotTS(),
		cancel: make(chan struct{}),
	}
	p.keyKinds = ix.keyKinds
	p.segStats = make([]QueryStats, len(segs))
	p.run(n)
	return &Cursor{src: p, limit: cfg.limit}, nil
}

// parallelSource fans a segmented scan out to workers and feeds the
// cursor from their block streams. Lock order note for the workers: a
// worker holds at most one leaf latch at a time (inside NextBlock),
// takes heap-page latches only after releasing none — the established
// index-leaf → heap-page order of Lookup applies to the in-visitor
// cache probe, and the heap fallback here runs with no leaf latch held
// at all (entries were copied out of the leaf first). Channel sends
// never happen under any latch.
type parallelSource struct {
	ix       *Index
	plan     *projPlan
	fp       *filterPlan
	policy   CachePolicy
	merge    MergeMode
	segs     []btree.Segment
	width    int
	keyKinds []tuple.Kind
	snap     uint64 // read timestamp (snapLatest outside transactions)

	cancel    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	errMu sync.Mutex
	err   error

	statsMu  sync.Mutex
	segStats []QueryStats

	// Consumer-owned state (step/close run on the cursor's goroutine).
	pending QueryStats
	out     chan *RowBlock // unordered fan-in
	cur     *RowBlock
	pos     int
	lt      *loserTree // ordered merge
	chans   []chan *RowBlock
}

// run spawns the workers. Ordered mode runs one dedicated worker per
// segment (the plan targeted n segments), each with its own channel —
// a single producer per stream means no claim/queue interleaving can
// starve the merge's wait on any one head. Unordered mode oversubscribes
// the plan and lets n workers claim segments dynamically into one
// fan-in channel.
func (p *parallelSource) run(n int) {
	if p.merge == MergeOrdered {
		p.chans = make([]chan *RowBlock, len(p.segs))
		for si := range p.segs {
			p.chans[si] = make(chan *RowBlock, 2)
		}
		for si := range p.segs {
			p.wg.Add(1)
			go func(si int) {
				defer p.wg.Done()
				defer close(p.chans[si])
				w := p.newWorker()
				if err := w.scanSegment(si, func(b *RowBlock) bool { return p.send(p.chans[si], b) }); err != nil {
					p.setErr(err)
				}
			}(si)
		}
		p.lt = newLoserTree(p, p.chans)
		return
	}
	if n > len(p.segs) {
		n = len(p.segs)
	}
	p.out = make(chan *RowBlock, 2*n)
	var next atomic.Int32
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w := p.newWorker()
			for {
				si := int(next.Add(1)) - 1
				if si >= len(p.segs) {
					return
				}
				select {
				case <-p.cancel:
					return
				default:
				}
				if err := w.scanSegment(si, func(b *RowBlock) bool { return p.send(p.out, b) }); err != nil {
					p.setErr(err)
					return
				}
			}
		}()
	}
	go func() {
		p.wg.Wait()
		close(p.out)
	}()
}

func (p *parallelSource) send(ch chan *RowBlock, b *RowBlock) bool {
	select {
	case ch <- b:
		return true
	case <-p.cancel:
		p.recycle(b)
		return false
	}
}

func (p *parallelSource) setErr(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

func (p *parallelSource) firstErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

func (p *parallelSource) getBlock(si int) *RowBlock {
	b := rowBlockPool.Get().(*RowBlock)
	b.reset(p.width, si)
	return b
}

func (p *parallelSource) recycle(b *RowBlock) { rowBlockPool.Put(b) }

// takeStats folds a received block's delta into the consumer's pending
// stats. Rows is excluded — Cursor.Next counts served rows itself.
func (p *parallelSource) takeStats(b *RowBlock) {
	p.pending.CacheHits += b.stats.CacheHits
	p.pending.HeapReads += b.stats.HeapReads
	p.pending.LeafFetches += b.stats.LeafFetches
}

func (p *parallelSource) flushPending(c *Cursor) {
	c.stats.CacheHits += p.pending.CacheHits
	c.stats.HeapReads += p.pending.HeapReads
	c.stats.LeafFetches += p.pending.LeafFetches
	p.pending = QueryStats{}
}

func (p *parallelSource) addSegStats(si int, d QueryStats) {
	p.statsMu.Lock()
	p.segStats[si].Add(d)
	p.statsMu.Unlock()
}

func (p *parallelSource) segmentStats() []QueryStats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	out := make([]QueryStats, len(p.segStats))
	copy(out, p.segStats)
	return out
}

func (p *parallelSource) step(c *Cursor) bool {
	if p.merge == MergeOrdered {
		s := p.lt.next()
		p.flushPending(c)
		if s < 0 {
			if err := p.firstErr(); err != nil {
				c.err = err
			}
			return false
		}
		st := &p.lt.streams[s]
		c.row = st.blk.row(st.pos)
		c.key = st.blk.key(st.pos)
		c.rid = st.blk.rids[st.pos]
		return true
	}
	if p.cur != nil {
		p.pos++
		if p.pos >= p.cur.n {
			p.recycle(p.cur)
			p.cur = nil
		}
	}
	for p.cur == nil {
		blk, ok := <-p.out
		if !ok {
			if err := p.firstErr(); err != nil {
				c.err = err
			}
			return false
		}
		p.takeStats(blk)
		p.flushPending(c)
		if blk.n == 0 {
			p.recycle(blk)
			continue
		}
		p.cur, p.pos = blk, 0
	}
	c.row = p.cur.row(p.pos)
	c.key = p.cur.key(p.pos)
	c.rid = p.cur.rids[p.pos]
	return true
}

// close cancels the workers and waits for them to exit. Blocks still
// queued in channels are dropped to the GC — workers blocked on a send
// observe the cancel and return.
func (p *parallelSource) close() {
	p.closeOnce.Do(func() { close(p.cancel) })
	p.wg.Wait()
}

// --- segment worker ------------------------------------------------------

// segWorker is one worker's reusable scratch for scanning segments:
// the entry block filled under the leaf latch, the per-entry cache
// captures aligned with it (hit flags plus a payload slab — the entry
// visitor fires under the latch, everything downstream runs without
// it), and decode buffers.
type segWorker struct {
	p        *parallelSource
	useCache bool
	needKey  bool
	eb       btree.EntryBlock
	hits     []bool
	payloads []byte
	poffs    []int32
	keyVals  []tuple.Value
	heapRow  tuple.Row
	heapBuf  []byte
	keyBuf   []byte // scratch: a fetched row's key, checked against its entry
}

func (p *parallelSource) newWorker() *segWorker {
	w := &segWorker{p: p}
	w.useCache = p.ix.useScanCache(p.policy, p.plan, p.fp)
	w.needKey = (w.useCache && p.plan.coverable) || (p.fp != nil && len(p.fp.key) > 0)
	return w
}

// visit captures the cache probe for one served entry. Runs under the
// shared leaf latch, aligned one-to-one with the entries NextBlock
// pushes.
func (w *segWorker) visit(l *btree.Leaf, pos int) {
	hit := false
	if w.p.ix.cache.Prepare(l) {
		if pl, ok := w.p.ix.cache.LookupInto(w.payloads, l, l.ValueAt(pos)); ok {
			w.payloads = pl
			hit = true
		}
	}
	if len(w.poffs) == 0 {
		w.poffs = append(w.poffs, 0)
	}
	w.poffs = append(w.poffs, int32(len(w.payloads)))
	w.hits = append(w.hits, hit)
}

func (w *segWorker) resetCaptures() {
	w.hits = w.hits[:0]
	w.payloads = w.payloads[:0]
	w.poffs = w.poffs[:0]
}

// scanSegment streams the segment's rows as blocks through send, which
// returns false when the query was cancelled. Stats deltas are folded
// into the per-segment accounting whether or not the block ships.
func (w *segWorker) scanSegment(si int, send func(*RowBlock) bool) error {
	p := w.p
	seg := p.segs[si]
	var bopts []btree.CursorOption
	if w.useCache {
		bopts = append(bopts, btree.WithEntryVisitor(w.visit))
	}
	bt := p.ix.tree.NewCursor(seg.Lo, seg.Hi, bopts...)
	defer bt.Close()
	var prevFetches int64
	for {
		w.resetCaptures()
		k := bt.NextBlock(&w.eb, blockRows)
		if k == 0 {
			return bt.Err()
		}
		blk := p.getBlock(si)
		blk.stats.LeafFetches = bt.LeafFetches() - prevFetches
		prevFetches = bt.LeafFetches()
		for i := 0; i < k; i++ {
			if err := w.resolve(blk, i); err != nil {
				p.recycle(blk)
				return err
			}
		}
		blk.stats.Rows = int64(blk.n)
		p.addSegStats(si, blk.stats)
		if blk.n == 0 {
			p.recycle(blk)
			continue
		}
		if !send(blk) {
			return nil
		}
	}
}

// resolve turns entry i of the current block fill into a committed row
// in blk, or drops it when a filter rejects it. The tier order matches
// the serial source exactly: key bytes, then cached payload, then heap.
func (w *segWorker) resolve(blk *RowBlock, i int) error {
	p := w.p
	key := w.eb.Key(i)
	rid := storage.UnpackRID(w.eb.Value(i))
	hit := false
	var payload []byte
	if w.useCache && w.hits[i] {
		payload = w.payloads[w.poffs[i]:w.poffs[i+1]]
		hit = true
	}
	// MVCC visibility, mirroring the serial indexSource: unique entries
	// resolve through the version chain under a pinned snapshot, every
	// other shape is a per-RID check.
	if p.snap != snapLatest && p.ix.unique {
		vrid, ok := p.ix.table.resolveVisible(rid, p.snap)
		if !ok {
			return nil
		}
		if vrid != rid {
			hit = false // cache payload describes the newest version
			rid = vrid
		}
	} else if !p.ix.table.ridVisible(rid, p.snap) {
		return nil
	}
	keyDecoded := false
	if w.needKey {
		kv, err := tuple.DecodeKeyInto(w.keyVals[:0], key, p.keyKinds...)
		if err != nil {
			return fmt.Errorf("core: decoding key: %w", err)
		}
		w.keyVals = kv
		keyDecoded = true
	}
	fp := p.fp
	if fp != nil && len(fp.key) > 0 && !fp.passKey(w.keyVals) {
		return nil
	}
	if hit && fp != nil && len(fp.cached) > 0 {
		pass, ok := fp.passCached(p.ix, payload)
		if ok && !pass {
			return nil
		}
		if !ok {
			hit = false
		}
	}
	if hit && keyDecoded && p.plan.coverable && (fp == nil || !fp.needsHeap) {
		if _, ok := p.ix.assembleInto(blk.nextRow(), w.keyVals, payload, p.plan); ok {
			blk.commit(key, rid)
			blk.stats.CacheHits++
			return nil
		}
	}
	rec, err := p.ix.table.file.GetInto(w.heapBuf[:0], rid)
	if err != nil {
		if errors.Is(err, storage.ErrDeleted) {
			return nil // racing delete committed after the entry was read
		}
		return fmt.Errorf("core: fetching %v: %w", rid, err)
	}
	w.heapBuf = rec[:0]
	row, _, err := tuple.DecodeInto(w.heapRow, p.ix.table.schema, rec)
	if err != nil {
		return fmt.Errorf("core: decoding %v: %w", rid, err)
	}
	w.heapRow = row
	blk.stats.HeapReads++
	var same bool
	if w.keyBuf, same = p.ix.stillIndexes(w.keyBuf, row, rid, key); !same {
		return nil // the slot was freed and reused since the entry was read
	}
	if fp != nil && !fp.passRow(row) {
		return nil
	}
	projectRowInto(blk.nextRow(), row, p.plan.idx)
	blk.commit(key, rid)
	return nil
}
