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
	// MergeOrdered serves rows in global key order: the cursor reads the
	// planned segments' streams one after another in plan order, which
	// is key order (segments are disjoint and sorted). The cursor
	// contract is identical to a serial index scan.
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

// segmentsPerWorker oversubscribes a parallel cursor's segment plan,
// ordered or not, so the dynamic claim evens out segment-size skew.
const segmentsPerWorker = 4

// rowBlock is a vectorized batch of assembled rows shipped from a scan
// worker to the consuming cursor: a columnar-ish slab of n*width
// values (row i is a 3-index sub-slice, so rows can't append over each
// other), the encoded keys delimited by offsets, RIDs, and the stats
// delta attributable to the block. Blocks are pooled; a consumed block
// is recycled as soon as the cursor steps past its last row.
type rowBlock struct {
	width int
	vals  []tuple.Value
	keys  []byte
	koffs []int32
	rids  []storage.RID
	n     int
	stats QueryStats
}

func (b *rowBlock) reset(width int) {
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
func (b *rowBlock) nextRow() tuple.Row {
	lo := b.n * b.width
	hi := lo + b.width
	for len(b.vals) < hi {
		b.vals = append(b.vals, tuple.Value{})
	}
	return b.vals[lo:hi:hi]
}

// commit finalizes the row last handed out by nextRow.
func (b *rowBlock) commit(key []byte, rid storage.RID) {
	b.keys = append(b.keys, key...)
	b.koffs = append(b.koffs, int32(len(b.keys)))
	b.rids = append(b.rids, rid)
	b.n++
}

func (b *rowBlock) row(i int) tuple.Row {
	lo := i * b.width
	hi := lo + b.width
	return b.vals[lo:hi:hi]
}

func (b *rowBlock) key(i int) []byte { return b.keys[b.koffs[i]:b.koffs[i+1]] }

var rowBlockPool = sync.Pool{New: func() any { return new(rowBlock) }}

// parallelQuery plans the range into per-subtree segments and makes c
// a cursor over the worker streams.
func (ix *Index) parallelQuery(c *Cursor, plan *projPlan, fp *filterPlan, start, end []byte) error {
	cfg := &c.cfg
	if cfg.merge != MergeOrdered && cfg.merge != MergeUnordered {
		return fmt.Errorf("core: unknown merge mode %d", int(cfg.merge))
	}
	segs, err := ix.tree.PlanSegments(start, end, cfg.parallel*segmentsPerWorker)
	if err != nil {
		return err
	}
	p := &parallelSource{
		segs: segs,
		pool: newSegRunner(),
	}
	p.scan.r.reset(ix, plan, fp, cfg.policy, cfg.snapshotTS(), nil)
	p.start(min(cfg.parallel, len(segs)), cfg.merge == MergeOrdered)
	c.src, c.limit = p, cfg.limit
	return nil
}

// parallelSource fans a segmented scan out to workers, each running the
// shared block loop (blockScan) into rowBlocks, and feeds the cursor
// from their block streams.
type parallelSource struct {
	scan blockScan // template: every worker scans with its own copy
	segs []btree.Segment
	pool *segRunner

	// chans are the block streams the cursor reads, in order: one per
	// segment when ordered, one shared fan-in when unordered.
	chans []chan *rowBlock

	// Consumer-owned state (step/close run on the cursor's goroutine).
	si  int // the stream being read
	cur *rowBlock
	pos int
}

// start runs workers on the runner's claim loop. An ordered scan sends
// each segment's blocks to that segment's own channel, which the worker
// closes once the segment is done and its error, if any, is kept; an
// unordered scan sends every block to one channel, closed once all
// workers have returned. A channel buffers two blocks per producer: one
// in flight to the consumer while the next is being resolved.
//
// The ordered cursor waits on the lowest unfinished segment, and it
// always has a live producer or a closed channel: segments are claimed
// in increasing order, and a worker stops claiming only when none is
// left, the cursor closed, or its segment failed — which the cursor
// meets first.
func (p *parallelSource) start(workers int, ordered bool) {
	nch, buf := 1, 2*workers
	if ordered {
		nch, buf = len(p.segs), 2
	}
	p.chans = make([]chan *rowBlock, nch)
	for i := range p.chans {
		p.chans[i] = make(chan *rowBlock, buf)
	}
	scans := make([]blockScan, workers)
	for w := range scans {
		scans[w] = p.scan
	}
	p.pool.claim(workers, len(p.segs), func(w, si int) error {
		if !ordered {
			return p.scanSegment(&scans[w], si, p.chans[0])
		}
		err := p.scanSegment(&scans[w], si, p.chans[si])
		p.pool.keep(err) // before the close: the cursor looks for it there
		close(p.chans[si])
		return err
	})
	if !ordered {
		go func() {
			p.pool.wg.Wait()
			close(p.chans[0])
		}()
	}
}

// scanSegment streams segment si's rows as blocks into ch until the
// segment is exhausted or the cursor was closed. A block whose entries
// were all rejected ships too: it carries the heap reads that rejected
// them to the cursor's stats.
func (p *parallelSource) scanSegment(b *blockScan, si int, ch chan *rowBlock) error {
	b.open(p.segs[si])
	defer b.close()
	var prev QueryStats
	for b.fill() > 0 {
		blk := rowBlockPool.Get().(*rowBlock)
		blk.reset(len(b.r.plan.idx))
		for i := 0; i < b.eb.Len(); i++ {
			_, rid, how, err := b.resolve(blk.nextRow(), i)
			if err != nil {
				rowBlockPool.Put(blk)
				return err
			}
			if how >= tierLeaf {
				blk.commit(b.eb.Key(i), rid)
			}
		}
		blk.stats = QueryStats{
			CacheHits:   b.stats.CacheHits - prev.CacheHits,
			HeapReads:   b.stats.HeapReads - prev.HeapReads,
			LeafFetches: b.stats.LeafFetches - prev.LeafFetches,
		}
		prev = b.stats
		select {
		case ch <- blk:
		case <-p.pool.cancel:
			rowBlockPool.Put(blk)
			return nil
		}
	}
	return b.bt.Err()
}

// step serves the next row, reading the streams in order. A stream
// that closes while the runner holds an error ends the cursor with it,
// so an ordered cursor never serves a row past a failed segment. A
// block's stats fold into the cursor's as it arrives; their Rows stays
// 0 — Cursor.Next counts served rows itself.
func (p *parallelSource) step(c *Cursor) bool {
	if p.cur != nil {
		if p.pos++; p.pos >= p.cur.n {
			rowBlockPool.Put(p.cur)
			p.cur = nil
		}
	}
	for p.cur == nil {
		if p.si == len(p.chans) {
			return false
		}
		blk, ok := <-p.chans[p.si]
		if !ok {
			if c.err = p.pool.firstErr(); c.err != nil {
				return false
			}
			p.si++
			continue
		}
		c.stats.Add(blk.stats)
		if blk.n == 0 {
			rowBlockPool.Put(blk)
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
