package core

import (
	"fmt"
	"sync"

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
	stats QueryStats
}

func (b *RowBlock) reset(width int) {
	b.width = width
	b.n = 0
	b.vals = b.vals[:0]
	b.keys = b.keys[:0]
	b.koffs = append(b.koffs[:0], 0)
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

// parallelQuery plans the range into per-subtree segments and makes c
// a cursor over the merged worker streams.
func (ix *Index) parallelQuery(c *Cursor, plan *projPlan, fp *filterPlan, start, end []byte) error {
	cfg := &c.cfg
	if cfg.merge != MergeOrdered && cfg.merge != MergeUnordered {
		return fmt.Errorf("core: unknown merge mode %d", int(cfg.merge))
	}
	n := cfg.parallel
	target := n
	if cfg.merge == MergeUnordered {
		target = n * segmentsPerWorker
	}
	segs, err := ix.tree.PlanSegments(start, end, target)
	if err != nil {
		return err
	}
	p := &parallelSource{
		merge:    cfg.merge,
		segs:     segs,
		segStats: make([]QueryStats, len(segs)),
		pool:     newSegRunner(),
	}
	p.scan.r.reset(ix, plan, fp, cfg.policy, cfg.snapshotTS(), nil)
	p.start(n)
	c.src, c.limit = p, cfg.limit
	return nil
}

// parallelSource fans a segmented scan out to workers, each running the
// shared block loop (blockScan) into RowBlocks, and feeds the cursor
// from their block streams.
type parallelSource struct {
	scan  blockScan // template: every worker scans with its own copy
	merge MergeMode
	segs  []btree.Segment
	pool  *segRunner

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

// start spawns the workers. Ordered mode runs one dedicated worker per
// segment (the plan targeted n segments), each with its own channel —
// a single producer per stream means no claim/queue interleaving can
// starve the merge's wait on any one head. Unordered mode oversubscribes
// the plan and lets n workers claim segments dynamically into one
// fan-in channel. Either way a channel buffers two blocks per producer:
// one in flight to the consumer while the next is being resolved.
func (p *parallelSource) start(n int) {
	if p.merge == MergeOrdered {
		p.chans = make([]chan *RowBlock, len(p.segs))
		for si := range p.segs {
			p.chans[si] = make(chan *RowBlock, 2)
		}
		for si := range p.segs {
			p.pool.spawn(func() error {
				defer close(p.chans[si])
				b := p.scan
				return p.scanSegment(&b, si, p.chans[si])
			})
		}
		p.lt = newLoserTree(p, p.chans)
		return
	}
	if n > len(p.segs) {
		n = len(p.segs)
	}
	p.out = make(chan *RowBlock, 2*n)
	scans := make([]blockScan, n)
	for w := range scans {
		scans[w] = p.scan
	}
	p.pool.claim(n, len(p.segs), func(w, si int) error { return p.scanSegment(&scans[w], si, p.out) })
	go func() {
		p.pool.wg.Wait() // the error is the cursor's to collect, in step
		close(p.out)
	}()
}

// scanSegment streams segment si's rows as blocks into ch until the
// segment is exhausted or the cursor was closed. A block whose entries
// were all rejected ships too: it carries the heap reads that rejected
// them to the cursor's stats.
func (p *parallelSource) scanSegment(b *blockScan, si int, ch chan *RowBlock) error {
	b.open(p.segs[si])
	defer b.close()
	var prev QueryStats
	for b.fill() > 0 {
		blk := rowBlockPool.Get().(*RowBlock)
		blk.reset(len(b.r.plan.idx))
		for i := 0; i < b.eb.Len(); i++ {
			_, rid, how, err := b.resolve(blk.nextRow(), i)
			if err != nil {
				p.recycle(blk)
				return err
			}
			if how >= tierLeaf {
				blk.commit(b.eb.Key(i), rid)
			}
		}
		blk.stats = QueryStats{
			Rows:        int64(blk.n),
			CacheHits:   b.stats.CacheHits - prev.CacheHits,
			HeapReads:   b.stats.HeapReads - prev.HeapReads,
			LeafFetches: b.stats.LeafFetches - prev.LeafFetches,
		}
		prev = b.stats
		p.statsMu.Lock()
		p.segStats[si].Add(blk.stats)
		p.statsMu.Unlock()
		select {
		case ch <- blk:
		case <-p.pool.cancel:
			p.recycle(blk)
			return nil
		}
	}
	return b.bt.Err()
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
			c.err = p.pool.firstErr()
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
			c.err = p.pool.firstErr()
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
	p.pool.stop()
	p.pool.wg.Wait()
}
