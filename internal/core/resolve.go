package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/idxcache"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// tier says how resolver.resolve disposed of one index entry. The
// order matters: tierLeaf and above produced a row, anything below
// produced none.
type tier uint8

const (
	// tierSkip: no row — invisible at the read timestamp, or rejected by
	// a filter.
	tierSkip tier = iota
	// tierStale: no row — the entry outlived the row it pointed at. A
	// reader fetches with no heap latch held since it read the entry, so
	// a racing delete (or relocating update) can free the slot, and an
	// insert reuse it, in between. Scans skip (the row's own entry serves
	// it); a point read re-descends, because the writer that moved the
	// row is about to repoint the entry.
	tierStale
	// tierLeaf: answered from the index leaf — key bytes plus the §2.1
	// cached payload; no heap page touched.
	tierLeaf
	// tierHeap: fetched from the heap.
	tierHeap
)

// resolver is the one place an index entry becomes a row. The serial
// cursor (range or point step), the parallel segment workers and the
// pushdown aggregate all hand it (key, packed RID, cache probe result) and get back the
// projected row and the tier that answered; they differ only in the
// data set here and in what they do with the row. The tier order is the
// paper's §2.1.1: MVCC visibility → key-byte filters → cached-payload
// filters → answer from the leaf → heap fetch + stale-entry re-check →
// row filters → project. Scratch is per reader: a resolver is not safe
// for concurrent use.
type resolver struct {
	ix   *Index
	plan *projPlan
	fp   *filterPlan // nil = no filters
	snap uint64      // read timestamp (snapLatest outside transactions)
	// probe: the reader probes the §2.1 cache for every entry, under the
	// leaf latch it holds anyway, and passes what it found.
	probe bool
	// leaf: an entry may be answered from its leaf alone — on a cache hit
	// when the reader probes, from key bytes when it does not (a pushdown
	// aggregate over key fields only).
	leaf bool
	// decodeKey: a leaf answer takes key values decoded from the entry's
	// key bytes. Off when the plan reads none, and for a point step,
	// whose caller supplied the values it searched for.
	decodeKey bool
	// need is the field set a fetched heap record is decoded into: the
	// plan's, widened by the fields the heap-tier filters read.
	need []bool
	// stats is where CacheHits and HeapReads are counted: the cursor's
	// or the block loop's.
	stats *QueryStats

	// view: a heap answer's strings and byte slices alias heapBuf, and the
	// strings its string slots rebuild alias strs, instead of being copied
	// out (QueryInto; see there for who may hold them).
	view bool

	keyVals []tuple.Value
	payload []byte // single-entry probe scratch (serial cursor)
	heapRow tuple.Row
	heapBuf []byte
	strs    []byte // a view answer's rebuilt strings
	keyBuf  []byte // a fetched row's key, checked against its entry

	// Inline backing for the scratch above (see bind), so a one-row
	// answer grows nothing.
	keyValArr  [2]tuple.Value
	payloadArr [32]byte
	recArr     [256]byte
	strArr     [64]byte
	rowArr     [8]tuple.Value
	keyArr     [32]byte
}

// bind points the resolver's empty scratch at its inline arrays. It runs
// where the resolver sits for good — in a cursor or a worker's blockScan
// — since a copy made afterwards would share the original's arrays.
func (r *resolver) bind() {
	if r.heapBuf == nil {
		r.keyVals, r.payload, r.heapBuf, r.heapRow, r.keyBuf = r.keyValArr[:0], r.payloadArr[:0], r.recArr[:0], r.rowArr[:0], r.keyArr[:0]
		r.strs = r.strArr[:0]
	}
}

// poison overwrites, under PoisonScratch, the record a view answer
// aliases, the strings rebuilt for it, the row decoded from it and out,
// the row handed over: a view kept past its lifetime then reads as
// garbage instead of as plausible stale data.
func (r *resolver) poison(out tuple.Row) {
	if !poisonScratch.Load() {
		return
	}
	rec, strs, row, out := r.heapBuf[:cap(r.heapBuf)], r.strs[:cap(r.strs)], r.heapRow[:cap(r.heapRow)], out[:cap(out)]
	for i := range rec {
		rec[i] = 0xDB
	}
	for i := range strs {
		strs[i] = 0xDB
	}
	for i := range row {
		row[i] = poisonValue
	}
	for i := range out {
		out[i] = poisonValue
	}
}

// reset readies r, in place, to resolve ix's entries for plan and fp
// under policy at snap. The cache is probed when the policy allows it,
// the index has one, and a hit is worth something: it answers the row
// (coverable projection) or rejects it before the heap (cached-tier
// filters). In place, because a resolver is ~1 KB: returned by value it
// would be a temporary in every caller's frame, and a served Get's
// goroutine pays a stack copy for each frame that outgrows its stack.
func (r *resolver) reset(ix *Index, plan *projPlan, fp *filterPlan, policy CachePolicy, snap uint64, stats *QueryStats) {
	*r = resolver{}
	r.ix, r.plan, r.fp, r.snap, r.stats = ix, plan, fp, snap, stats
	r.probe = policy == CacheFirst && ix.cache != nil && (plan.coverable || (fp != nil && len(fp.cached) > 0))
	r.leaf = r.probe && plan.coverable && fp.coverable()
	r.decodeKey = plan.usesKey
	r.need = plan.need
	if fp != nil {
		r.need = withFilters(r.need, fp.rest)
	}
}

// resolve turns one index entry into its projected row, assembled into
// dst (reused when its capacity suffices). payload and hit are the
// reader's cache probe for this entry; rid is the version served, which
// under a pinned snapshot may be older than the one the entry names.
func (r *resolver) resolve(dst tuple.Row, key []byte, packed uint64, payload []byte, hit bool) (tuple.Row, storage.RID, tier, error) {
	ix, fp := r.ix, r.fp
	rid := storage.UnpackRID(packed)
	// MVCC visibility. Unique entries point at the newest version under
	// the key; a pinned snapshot may need an older one, reached through
	// the prev chain. Non-unique entries (and latest reads, where the
	// chain degenerates to a liveness check) are per-RID.
	if r.snap != snapLatest && ix.unique {
		vrid, ok := ix.table.resolveVisible(rid, r.snap)
		if !ok {
			return nil, rid, tierSkip, nil
		}
		if vrid != rid {
			hit = false // cache payload describes the newest version
			rid = vrid
		}
	} else if !ix.table.ridVisible(rid, r.snap) {
		return nil, rid, tierSkip, nil
	}
	decoded := !r.decodeKey
	if fp != nil && len(fp.key) > 0 {
		if err := r.decode(key); err != nil {
			return nil, rid, tierSkip, err
		}
		decoded = true
		if !fp.passKey(r.keyVals) {
			return nil, rid, tierSkip, nil // rejected on key bytes: no cache, no heap
		}
	}
	if hit && fp != nil && len(fp.cached) > 0 {
		pass, ok := fp.passCached(ix, payload)
		if ok && !pass {
			return nil, rid, tierSkip, nil // rejected on the cached payload: no heap
		}
		if !ok {
			hit = false // payload unusable; the heap row re-evaluates
		}
	}
	if r.leaf && (hit || !r.probe) {
		if !decoded {
			if err := r.decode(key); err != nil {
				return nil, rid, tierSkip, err
			}
		}
		if row, ok := ix.assembleInto(dst, r.keyVals, payload, r.plan); ok {
			if hit {
				r.stats.CacheHits++
			}
			return row, rid, tierLeaf, nil
		}
	}
	rec, err := ix.table.file.GetInto(r.heapBuf[:0], rid)
	if err != nil {
		if errors.Is(err, storage.ErrDeleted) {
			return nil, rid, tierStale, nil
		}
		return nil, rid, tierSkip, fmt.Errorf("core: fetching %v: %w", rid, err)
	}
	r.heapBuf = rec[:0]
	var strs *[]byte
	if r.view {
		r.strs, strs = r.strs[:0], &r.strs
	}
	row, err := decodeFields(r.heapRow, ix.table.schema, rec, r.need, strs)
	if err != nil {
		return nil, rid, tierSkip, fmt.Errorf("core: decoding %v: %w", rid, err)
	}
	r.heapRow = row
	r.stats.HeapReads++
	var same bool
	if r.keyBuf, same = ix.stillIndexes(r.keyBuf, row, rid, key); !same {
		return nil, rid, tierStale, nil
	}
	if fp != nil && !fp.passRow(row) {
		return nil, rid, tierSkip, nil
	}
	return projectRowInto(dst, row, r.plan.idx), rid, tierHeap, nil
}

func (r *resolver) decode(key []byte) error {
	kv, err := tuple.DecodeKeyInto(r.keyVals[:0], key, r.ix.keyKinds...)
	if err != nil {
		return fmt.Errorf("core: decoding key: %w", err)
	}
	r.keyVals = kv
	return nil
}

// cacheGate keeps a scan's answer to "is this leaf's §2.1 cache usable?"
// (idxcache.Cache.Prepare) for as long as it cannot change. A scan holds
// its leaves shared, so it repairs nothing itself: the answer for a leaf
// moves only when the leaf's keys do (its version), the whole cache is
// invalidated (CSNidx) or a predicate is logged (the log's head). Until
// one of them does, asking again walks the same pending predicates to
// the same verdict — once per entry, where once per leaf is enough. (A
// leaf another visitor repaired meanwhile stays unusable until the scan
// leaves it: hits lost, never a stale one served.)
type cacheGate struct {
	page           storage.PageID // InvalidPageID: nothing kept
	ver, csn, head uint32
	usable         bool
}

// prepare is c.Prepare(l), remembered.
func (g *cacheGate) prepare(c *idxcache.Cache, l *btree.Leaf) bool {
	page, ver, csn, head := l.PageID(), l.Version(), c.CSN(), c.Log().HeadSeq()
	if g.page != page || g.ver != ver || g.csn != csn || g.head != head {
		*g = cacheGate{page: page, ver: ver, csn: csn, head: head, usable: c.Prepare(l)}
	}
	return g.usable
}

// --- block loop ----------------------------------------------------------

// blockScan is the one block loop of the index read path, shared by the
// parallel segment workers and the pushdown aggregate: fill copies up to
// blockRows entries out of the leaves — one latch acquisition per leaf —
// while the entry visitor captures each entry's cache probe under that
// same latch (hit flags plus a payload slab, aligned one-to-one with
// the entries); resolve then turns entry i into a row with no latch
// held at all.
//
// Lock order: a scan holds at most one leaf latch at a time (inside
// NextBlock), and the cache probe under it follows the point step's
// established index-leaf → heap-page order trivially — it touches no heap page. The
// heap fetch runs after the entries were copied out of the leaf, with
// no leaf latch held. Callers never send on a channel from under fill.
type blockScan struct {
	r        resolver
	stats    QueryStats // this segment's running totals; r counts into it
	bt       btree.Cursor
	eb       btree.EntryBlock
	gate     cacheGate
	hits     []bool
	payloads []byte
	poffs    []int32
}

// open starts the scan of one segment, resetting its stats. close
// releases the leaf pin.
func (b *blockScan) open(seg btree.Segment) {
	b.stats = QueryStats{}
	b.r.stats = &b.stats
	b.r.bind()
	if b.r.probe {
		b.r.ix.tree.OpenCursor(&b.bt, seg.Lo, seg.Hi, btree.WithEntryVisitor(b))
	} else {
		b.r.ix.tree.OpenCursor(&b.bt, seg.Lo, seg.Hi)
	}
}

func (b *blockScan) close() { b.bt.Close() }

// VisitEntry is the block loop's entry visitor: the cache probe for one
// served entry, appended to the slab. Runs under the shared leaf latch.
func (b *blockScan) VisitEntry(l *btree.Leaf, pos int) {
	hit := false
	if b.gate.prepare(b.r.ix.cache, l) {
		if pl, ok := b.r.ix.cache.LookupInto(b.payloads, l, l.ValueAt(pos)); ok {
			b.payloads = pl
			hit = true
		}
	}
	b.poffs = append(b.poffs, int32(len(b.payloads)))
	b.hits = append(b.hits, hit)
}

// fill fetches the next block of entries and returns how many there
// are; zero means the segment is exhausted or the cursor failed (check
// b.bt.Err).
func (b *blockScan) fill() int {
	b.hits, b.payloads, b.poffs = b.hits[:0], b.payloads[:0], append(b.poffs[:0], 0)
	k := b.bt.NextBlock(&b.eb, blockRows)
	b.stats.LeafFetches = b.bt.LeafFetches()
	return k
}

// resolve resolves entry i of the current block into dst.
func (b *blockScan) resolve(dst tuple.Row, i int) (tuple.Row, storage.RID, tier, error) {
	var payload []byte
	hit := b.r.probe && b.hits[i]
	if hit {
		payload = b.payloads[b.poffs[i]:b.poffs[i+1]]
	}
	return b.r.resolve(dst, b.eb.Key(i), b.eb.Value(i), payload, hit)
}

// --- segment runner ------------------------------------------------------

// segRunner is the goroutine pool segmented reads run on — a parallel
// cursor's workers and Index.Aggregate's. It keeps the first error and
// a stop signal for work whose consumer went away.
type segRunner struct {
	wg     sync.WaitGroup
	next   atomic.Int32
	cancel chan struct{}
	once   sync.Once
	errMu  sync.Mutex
	err    error
}

func newSegRunner() *segRunner { return &segRunner{cancel: make(chan struct{})} }

// spawn runs fn on its own goroutine, keeping its error.
func (sr *segRunner) spawn(fn func() error) {
	sr.wg.Add(1)
	go func() {
		defer sr.wg.Done()
		if err := fn(); err != nil {
			sr.errMu.Lock()
			if sr.err == nil {
				sr.err = err
			}
			sr.errMu.Unlock()
		}
	}()
}

// claim spawns workers goroutines that take segments 0..n-1 in claim
// order — oversubscribed plans even out segment-size skew this way —
// each until none is left, its fn fails, or the runner is stopped.
func (sr *segRunner) claim(workers, n int, fn func(w, si int) error) {
	for w := 0; w < workers; w++ {
		sr.spawn(func() error {
			for {
				si := int(sr.next.Add(1)) - 1
				if si >= n || sr.stopped() {
					return nil
				}
				if err := fn(w, si); err != nil {
					return err
				}
			}
		})
	}
}

// stop tells the workers their consumer is gone. Idempotent.
func (sr *segRunner) stop() { sr.once.Do(func() { close(sr.cancel) }) }

func (sr *segRunner) stopped() bool {
	select {
	case <-sr.cancel:
		return true
	default:
		return false
	}
}

// wait blocks until every spawned goroutine has returned and reports
// the first error any of them hit.
func (sr *segRunner) wait() error {
	sr.wg.Wait()
	return sr.firstErr()
}

func (sr *segRunner) firstErr() error {
	sr.errMu.Lock()
	defer sr.errMu.Unlock()
	return sr.err
}
