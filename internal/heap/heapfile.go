// Package heap implements heap files: unordered collections of records
// stored in slotted pages, addressed by RID, with in-memory free-space
// maps for insert placement.
//
// The insert path is sharded. A file owns N insert shards, each with
// its own mutex, tail page, and free-space map (pages bucketed by
// remaining insert budget), so parallel inserters contend per shard
// rather than per file. Goroutines are routed to shards with an
// affinity hint (see shardHint); a shard that cannot satisfy an insert
// falls back to its siblings' free space before extending the file, so
// space freed by deletes is reused no matter which shard owns it.
//
// The default placement policy refills freed space anywhere in the
// file. AppendOnly forces the append-biased policy ("append to table")
// the paper criticizes in Section 3.1 — tuple placement follows
// insertion order, not access pattern, so hot tuples end up scattered —
// which needs a single global tail and therefore a single shard.
// internal/partition implements the paper's fix on top of this layer
// (delete + re-append clustering and hot/cold partitions).
package heap

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// pageFlagHeap tags heap pages in the slotted-page flags word.
const pageFlagHeap uint16 = 0x48 // 'H'

// slotOverhead pads an insert's space requirement when picking a page:
// a possible new slot-directory entry plus slack, so the advisory map
// rarely sends an insert to a page that then refuses it.
const slotOverhead = 8

// fsmBuckets is the number of free-space buckets per shard. Pages are
// bucketed by advisory free bytes in units of budget/fsmBuckets, so a
// pick scans at most a handful of candidates instead of every page.
// The bucket width bounds the reclaim granularity: freed space smaller
// than one quantum (budget/64 — 128B on the default 8KiB pages) may
// sit in the bottom bucket among genuinely full pages where only the
// boundary probes can find it, so fine buckets keep the strandable
// slack per page small (PostgreSQL's FSM makes the same trade at 1/256
// granularity).
const fsmBuckets = 64

// freeSpaceMap tracks the advisory insertable bytes of the pages one
// insert shard owns, bucketed by remaining budget so picks are O(1).
// Values are advisory; the slotted page is the source of truth at
// insert time, and a failed insert corrects the entry (see File.tryPage).
// Guarded by the owning shard's mutex.
type freeSpaceMap struct {
	budget int // per-page insert budget (fill factor × page size)
	free   map[storage.PageID]int
	bucket [fsmBuckets]map[storage.PageID]struct{}
}

func newFreeSpaceMap(budget int) freeSpaceMap {
	m := freeSpaceMap{budget: budget, free: make(map[storage.PageID]int)}
	for i := range m.bucket {
		m.bucket[i] = make(map[storage.PageID]struct{})
	}
	return m
}

// bucketFor quantizes advisory free bytes to a bucket index. Bucket b
// holds pages with free space in [b, b+1)·budget/fsmBuckets, so every
// page in a bucket strictly above bucketFor(need) satisfies need.
func (m *freeSpaceMap) bucketFor(free int) int {
	if free <= 0 {
		return 0
	}
	b := free * fsmBuckets / m.budget
	if b >= fsmBuckets {
		b = fsmBuckets - 1
	}
	return b
}

// set records or updates a page's advisory free bytes, moving it
// between buckets as needed.
func (m *freeSpaceMap) set(id storage.PageID, free int) {
	if old, ok := m.free[id]; ok {
		if ob, nb := m.bucketFor(old), m.bucketFor(free); ob != nb {
			delete(m.bucket[ob], id)
			m.bucket[nb][id] = struct{}{}
		}
	} else {
		m.bucket[m.bucketFor(free)][id] = struct{}{}
	}
	m.free[id] = free
}

// pick returns a page whose advisory free space covers need. It probes
// a few candidates in the boundary bucket (whose pages may or may not
// fit), then takes the first page of any higher bucket (whose pages all
// fit, modulo staleness the insert path corrects). A fitting page in
// the boundary bucket beyond the probe limit can be missed — that is
// the bounded slack the fsmBuckets comment describes.
func (m *freeSpaceMap) pick(need int) (storage.PageID, bool) {
	const boundaryProbes = 8
	b := m.bucketFor(need)
	probes := 0
	for id := range m.bucket[b] {
		if m.free[id] >= need {
			return id, true
		}
		if probes++; probes >= boundaryProbes {
			break
		}
	}
	for b++; b < fsmBuckets; b++ {
		for id := range m.bucket[b] {
			if m.free[id] >= need {
				return id, true
			}
		}
	}
	return storage.InvalidPageID, false
}

// insertShard is one lane of the insert path: a mutex, the shard's
// free-space map, and the tail page it last allocated. The mutex is
// held across the whole placement attempt (pick, fetch, page insert),
// so two inserters in one shard never race for the same page's space.
type insertShard struct {
	mu   sync.Mutex // nblb:lock heap-shard
	fsm  freeSpaceMap
	tail storage.PageID
	// cur is the page that accepted this shard's last insert — the hot
	// page. Inserts try it before consulting the free-space map, so the
	// common streak of inserts into one page skips the bucket scan.
	cur storage.PageID
}

// shardHint is a goroutine-affinity token: a pooled pointer carrying
// the shard a goroutine was round-robin-assigned on first insert.
// sync.Pool is P-local, so a goroutine keeps drawing the same hint (and
// therefore the same shard) while it runs, and concurrent inserters
// hold distinct hints — goroutine-affine round-robin without goroutine
// ids or per-insert atomics on a shared counter.
type shardHint struct {
	idx int
}

// File is a heap file. It is safe for concurrent use: see the
// "Concurrency" section of the package documentation, and the method
// comments for the exact contract.
//
// Lock ordering (enforced by construction, documented in
// ARCHITECTURE.md): a shard mutex may be held while taking a frame
// latch or the meta lock; the reverse orders are forbidden — advisory
// free-space updates after Delete/Update release the frame latch before
// locking the owning shard, and meta is never held while a shard mutex
// or latch is awaited.
type File struct {
	pool *buffer.Pool

	// appendOnly forces inserts to ignore free space in earlier pages
	// and always fill the last page, the paper's "append to table".
	// It implies a single insert shard (one global tail).
	appendOnly bool
	// fillFactor caps how full inserts pack a page (1.0 = to the brim).
	// Reserved space serves in-place update headroom and, per the
	// paper's Section 2.2, the data-page join cache.
	fillFactor float64
	// budget is the per-page insertable byte cap: fillFactor × page size.
	budget int

	reqShards int // WithInsertShards request; 0 = automatic
	shards    []insertShard
	nextShard atomic.Uint32
	hints     sync.Pool // of *shardHint

	// meta guards the file's page catalog: every page in allocation
	// order, plus the shard that owns each page's free-space entry.
	// Ownership never changes after allocation, so a reader may release
	// meta before acting on what it looked up.
	//
	// nblb:lock heap-meta
	meta struct {
		sync.RWMutex
		pages []storage.PageID
		owner map[storage.PageID]int // page → shard index
	}

	// redoHeld keeps the redo puts that could not land at their RID
	// until a later action on the slot resolves them or FinishRedo places
	// them (redo.go). Only single-threaded recovery touches it.
	redoHeld map[storage.RID]redoHold
}

// Option configures a heap file.
type Option func(*File)

// AppendOnly makes inserts always go to the tail page, even when older
// pages have free space. Clustering experiments rely on this to get the
// paper's "relocate hot tuples by deleting then appending them to the
// end of the table" semantics. Append-only placement needs one global
// tail, so it forces a single insert shard, overriding WithInsertShards.
func AppendOnly() Option {
	return func(f *File) { f.appendOnly = true }
}

// WithFillFactor makes inserts leave 1−ff of each page's usable space
// free (like PostgreSQL's fillfactor). ff must be in (0, 1]; values
// outside are clamped. The reserved space absorbs in-place updates and
// hosts the Section 2.2 join cache.
func WithFillFactor(ff float64) Option {
	return func(f *File) {
		if ff <= 0 || ff > 1 {
			ff = 1
		}
		f.fillFactor = ff
	}
}

// WithInsertShards sets the number of insert shards (n < 1 picks
// automatically: min(8, GOMAXPROCS)). More shards admit more parallel
// inserters at the cost of up to n partially filled tail pages.
// Ignored under AppendOnly, which needs a single tail.
func WithInsertShards(n int) Option {
	return func(f *File) { f.reqShards = n }
}

// defaultInsertShards sizes the shard count to the machine: inserts
// serialize below on the buffer pool and disk, so past a small multiple
// of the CPU count extra shards only cost tail pages.
func defaultInsertShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewFile creates an empty heap file in the pool's disk.
func NewFile(pool *buffer.Pool, opts ...Option) (*File, error) {
	f := newShell(pool, opts...)
	s := &f.shards[0]
	s.mu.Lock()
	_, err := f.addPageLocked(0)
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f, nil
}

// newShell builds a File with options applied and shards initialized,
// without allocating or adopting any page — shared by NewFile and the
// recovery path's Open.
func newShell(pool *buffer.Pool, opts ...Option) *File {
	f := &File{
		pool:       pool,
		fillFactor: 1.0,
	}
	for _, o := range opts {
		o(f)
	}
	n := f.reqShards
	if n < 1 {
		n = defaultInsertShards()
	}
	if f.appendOnly {
		n = 1
	}
	f.budget = int(f.fillFactor * float64(pool.Disk().PageSize()))
	f.shards = make([]insertShard, n)
	for i := range f.shards {
		f.shards[i].fsm = newFreeSpaceMap(f.budget)
		f.shards[i].tail = storage.InvalidPageID
		f.shards[i].cur = storage.InvalidPageID
	}
	f.meta.owner = make(map[storage.PageID]int)
	f.hints.New = func() any {
		return &shardHint{idx: int(f.nextShard.Add(1)-1) % len(f.shards)}
	}
	return f
}

// InsertShards returns the number of insert shards the file routes
// across.
func (f *File) InsertShards() int { return len(f.shards) }

// addPageLocked allocates and formats a fresh heap page owned by shard
// si, registering it in the page catalog and the shard's free-space
// map. Caller holds shards[si].mu (taking meta while holding a shard
// mutex is the allowed order).
func (f *File) addPageLocked(si int) (storage.PageID, error) {
	fr, err := f.pool.NewPage()
	if err != nil {
		return storage.InvalidPageID, err
	}
	sp := storage.AsSlotted(fr.Data())
	sp.Init()
	sp.SetFlags(pageFlagHeap)
	id := fr.ID()
	free := f.advisoryFree(sp)
	f.pool.Unpin(fr, true)
	f.meta.Lock()
	f.meta.pages = append(f.meta.pages, id)
	f.meta.owner[id] = si
	f.meta.Unlock()
	s := &f.shards[si]
	s.fsm.set(id, free)
	s.tail = id
	return id, nil
}

// advisoryFree computes a page's advisory insertable bytes: available
// bytes after compaction, clamped to the remaining fill-factor budget
// (a budget-full page must read as full, or it would be picked
// forever). Call under the page's frame latch, or before the page is
// published.
func (f *File) advisoryFree(sp *storage.SlottedPage) int {
	free := sp.AvailableBytes()
	if f.fillFactor < 1 {
		if rem := f.budget - sp.UsedBytes(); rem < free {
			free = rem
		}
	}
	if free < 0 {
		free = 0
	}
	return free
}

// NumPages returns the number of pages in the file.
func (f *File) NumPages() int {
	f.meta.RLock()
	defer f.meta.RUnlock()
	return len(f.meta.pages)
}

// Pages returns a copy of the file's page ids in allocation order.
func (f *File) Pages() []storage.PageID {
	f.meta.RLock()
	defer f.meta.RUnlock()
	return append([]storage.PageID(nil), f.meta.pages...)
}

// Insert stores rec and returns its RID.
//
// Inserts are routed to the calling goroutine's affine shard; when that
// shard has no page with enough budget the insert falls back to the
// sibling shards' free space, and only extends the file when no shard's
// map can place the record — so deletes anywhere keep feeding inserts
// everywhere. Placement is approximate, not exact: free slivers below
// the bucket quantum (budget/64 per page) can be missed by the bounded
// boundary probes, so the file may grow while that much per-page slack
// remains — the price of O(1) picks over the exact linear scan.
func (f *File) Insert(rec []byte) (storage.RID, error) {
	if len(rec) == 0 {
		return storage.InvalidRID, fmt.Errorf("heap: cannot insert empty record")
	}
	h := f.hints.Get().(*shardHint)
	rid, err := f.insert(h.idx, rec)
	f.hints.Put(h)
	return rid, err
}

// InsertRun places a batch of records and fills rids[i] with record i's
// address. The whole run routes through the calling goroutine's affine
// shard under a single mutex acquisition — the batch counterpart of
// Insert's per-record lock/unlock — falling back to the per-record slow
// path (sibling shards, then file extension) only for records the home
// shard cannot place. Returns the number of records placed; on error
// that is also the index of the record that failed, and rids beyond it
// are untouched.
func (f *File) InsertRun(recs [][]byte, rids []storage.RID) (int, error) {
	if len(rids) < len(recs) {
		return 0, fmt.Errorf("heap: InsertRun needs %d rid slots, got %d", len(recs), len(rids))
	}
	h := f.hints.Get().(*shardHint)
	defer f.hints.Put(h)
	home := &f.shards[h.idx]
	i := 0
	for i < len(recs) {
		// Fast lane: every consecutive record the home shard can place
		// lands under this one lock acquisition.
		home.mu.Lock()
		for i < len(recs) {
			if len(recs[i]) == 0 {
				// Validated at placement time, not upfront, so the return
				// is always both the count placed and the failing index.
				home.mu.Unlock()
				return i, fmt.Errorf("heap: cannot insert empty record (run index %d)", i)
			}
			rid, ok, err := f.insertLocked(home, recs[i])
			if err != nil {
				home.mu.Unlock()
				return i, err
			}
			if !ok {
				break
			}
			rids[i] = rid
			i++
		}
		home.mu.Unlock()
		if i >= len(recs) {
			break
		}
		// The home shard is out of space for recs[i]: take the one-record
		// slow path (siblings, then extension), then resume the fast lane.
		rid, err := f.insert(h.idx, recs[i])
		if err != nil {
			return i, err
		}
		rids[i] = rid
		i++
	}
	return i, nil
}

func (f *File) insert(homeIdx int, rec []byte) (storage.RID, error) {
	home := &f.shards[homeIdx]
	home.mu.Lock()
	rid, ok, err := f.insertLocked(home, rec)
	home.mu.Unlock()
	if err != nil {
		return storage.InvalidRID, err
	}
	if ok {
		return rid, nil
	}
	// Cross-shard fallback: the home shard has no page that fits, but a
	// sibling might (deletes land space in whichever shard owns the
	// page). Shard mutexes are taken one at a time — never two at once —
	// so the fallback cannot deadlock with other inserters.
	for d := 1; d < len(f.shards); d++ {
		s := &f.shards[(homeIdx+d)%len(f.shards)]
		s.mu.Lock()
		rid, ok, err = f.insertLocked(s, rec)
		s.mu.Unlock()
		if err != nil {
			return storage.InvalidRID, err
		}
		if ok {
			return rid, nil
		}
	}
	// No shard can satisfy the insert: extend the file with a page owned
	// by the home shard. Re-check under the lock first — a concurrent
	// inserter may have extended (or a delete freed space) meanwhile.
	home.mu.Lock()
	defer home.mu.Unlock()
	rid, ok, err = f.insertLocked(home, rec)
	if err != nil {
		return storage.InvalidRID, err
	}
	if ok {
		return rid, nil
	}
	id, err := f.addPageLocked(homeIdx)
	if err != nil {
		return storage.InvalidRID, err
	}
	rid, ok, err = f.tryPage(home, id, rec)
	if err != nil {
		return storage.InvalidRID, err
	}
	if !ok {
		return storage.InvalidRID, fmt.Errorf("heap: record of %d bytes does not fit in an empty page", len(rec))
	}
	return rid, nil
}

// insertLocked attempts to place rec in one of s's pages, correcting
// stale advisory entries as it goes. Returns ok=false (no error) when
// the shard has no page that fits. Caller holds s.mu.
func (f *File) insertLocked(s *insertShard, rec []byte) (storage.RID, bool, error) {
	need := len(rec) + slotOverhead
	// Hot-page fast path: the page that took the last insert usually
	// takes the next one too, so skip the bucket scan while its
	// advisory still covers need.
	if !f.appendOnly && s.cur != storage.InvalidPageID && s.fsm.free[s.cur] >= need {
		rid, ok, err := f.tryPage(s, s.cur, rec)
		if err != nil || ok {
			return rid, ok, err
		}
	}
	for {
		target := s.tail
		if !f.appendOnly {
			t, ok := s.fsm.pick(need)
			if !ok {
				return storage.InvalidRID, false, nil
			}
			target = t
		} else if target == storage.InvalidPageID {
			return storage.InvalidRID, false, nil
		}
		rid, ok, err := f.tryPage(s, target, rec)
		if err != nil || ok {
			return rid, ok, err
		}
		if f.appendOnly {
			// The tail refused the record; only a fresh tail helps.
			return storage.InvalidRID, false, nil
		}
		// tryPage corrected the page's advisory below need, so the next
		// pick cannot return it again: the loop terminates after at most
		// one failed attempt per stale entry.
	}
}

// tryPage pins and latches target and attempts the page-level insert,
// honoring the insert-admission budget: a page holding records already
// at the budget refuses further inserts (still below 100% physically).
// Whatever happens, the shard's advisory entry for target is refreshed
// with the truth observed under the latch. Caller holds s.mu.
func (f *File) tryPage(s *insertShard, target storage.PageID, rec []byte) (storage.RID, bool, error) {
	fr, err := f.pool.Fetch(target)
	if err != nil {
		return storage.InvalidRID, false, err
	}
	fr.Latch.Lock()
	sp := storage.AsSlotted(fr.Data())
	var slot uint16
	if f.budget < f.pool.Disk().PageSize() && sp.LiveRecords() > 0 && sp.UsedBytes()+len(rec) > f.budget {
		err = storage.ErrNoSpace
	} else {
		slot, err = sp.Insert(rec)
	}
	free := f.advisoryFree(sp)
	fr.Latch.Unlock()
	s.fsm.set(target, free)
	if err == nil {
		s.cur = target
		f.pool.Unpin(fr, true)
		return storage.RID{Page: target, Slot: slot}, true, nil
	}
	f.pool.Unpin(fr, false)
	if err != storage.ErrNoSpace {
		return storage.InvalidRID, false, err
	}
	return storage.InvalidRID, false, nil
}

// noteFree publishes an advisory free-space observation to the owning
// shard's map. Callers must hold no frame latch and no shard mutex:
// frame latches order before shard mutexes would invert the insert
// path's shard→latch order and deadlock.
func (f *File) noteFree(id storage.PageID, free int) {
	f.meta.RLock()
	si, ok := f.meta.owner[id]
	f.meta.RUnlock()
	if !ok {
		return
	}
	s := &f.shards[si]
	s.mu.Lock()
	s.fsm.set(id, free)
	s.mu.Unlock()
}

// Get returns a copy of the record at rid.
func (f *File) Get(rid storage.RID) ([]byte, error) {
	return f.GetInto(nil, rid)
}

// GetInto is Get appending the record into dst (pass a reused buffer's
// [:0] slice to make repeated fetches allocation-free once the buffer
// has grown to the largest record).
func (f *File) GetInto(dst []byte, rid storage.RID) ([]byte, error) {
	fr, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	fr.Latch.RLock()
	sp := storage.AsSlotted(fr.Data())
	rec, err := sp.Get(rid.Slot)
	var out []byte
	if err == nil {
		out = append(dst, rec...)
	}
	fr.Latch.RUnlock()
	f.pool.Unpin(fr, false)
	return out, err
}

// GetRun fetches a batch of records, visiting each page once per
// consecutive page-grouped run of rids: fn(i, rec) is called for every
// rids[i] in order, with rec aliasing the page under its shared latch
// (copy to retain; fn must not fetch from this file or block on callers
// of it). Sorting rids by page maximizes the grouping; unsorted input
// is still correct, just unamortized. Returning false stops the run
// early. A dead or out-of-range slot fails the whole run.
func (f *File) GetRun(rids []storage.RID, fn func(i int, rec []byte) bool) error {
	i := 0
	for i < len(rids) {
		page := rids[i].Page
		fr, err := f.pool.Fetch(page)
		if err != nil {
			return err
		}
		fr.Latch.RLock()
		sp := storage.AsSlotted(fr.Data())
		stop := false
		j := i
		for ; j < len(rids) && rids[j].Page == page; j++ {
			rec, gerr := sp.Get(rids[j].Slot)
			if gerr != nil {
				err = gerr
				break
			}
			if !fn(j, rec) {
				stop = true
				j++
				break
			}
		}
		fr.Latch.RUnlock()
		f.pool.Unpin(fr, false)
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
		i = j
	}
	return nil
}

// Delete removes the record at rid. The freed space is reported to the
// page's owning shard, so later inserts — from any shard, via the
// cross-shard fallback — reclaim it.
func (f *File) Delete(rid storage.RID) error {
	fr, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	fr.Latch.Lock()
	sp := storage.AsSlotted(fr.Data())
	err = sp.Delete(rid.Slot)
	free := f.advisoryFree(sp)
	fr.Latch.Unlock()
	dirty := err == nil
	f.pool.Unpin(fr, dirty)
	if err == nil {
		f.noteFree(rid.Page, free)
	}
	return err
}

// Update replaces the record at rid in place. If the new payload no
// longer fits in its page, the record is moved: it is deleted and
// reinserted elsewhere, and the new RID is returned. Callers that
// maintain indexes must compare the returned RID with the argument.
func (f *File) Update(rid storage.RID, rec []byte) (storage.RID, error) {
	fr, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return storage.InvalidRID, err
	}
	fr.Latch.Lock()
	sp := storage.AsSlotted(fr.Data())
	err = sp.Update(rid.Slot, rec)
	free := f.advisoryFree(sp)
	fr.Latch.Unlock()
	if err == nil {
		f.pool.Unpin(fr, true)
		f.noteFree(rid.Page, free)
		return rid, nil
	}
	f.pool.Unpin(fr, false)
	if err != storage.ErrNoSpace {
		return storage.InvalidRID, err
	}
	if err := f.Delete(rid); err != nil {
		return storage.InvalidRID, fmt.Errorf("heap: relocating update: %w", err)
	}
	return f.Insert(rec)
}

// VisitPage pins the page and runs fn over its slotted view. The frame
// latch is taken exclusively when that succeeds without blocking
// (enabling volatile cache writes in the page's free space, Section 2.2
// of the paper), shared otherwise; fn receives which. The page is
// unpinned clean — mutations made under fn are volatile unless the
// caller arranges otherwise, exactly like index-cache writes.
func (f *File) VisitPage(id storage.PageID, fn func(sp *storage.SlottedPage, exclusive bool)) error {
	fr, err := f.pool.Fetch(id)
	if err != nil {
		return err
	}
	exclusive := fr.Latch.TryLock()
	if !exclusive {
		fr.Latch.RLock()
	}
	fn(storage.AsSlotted(fr.Data()), exclusive)
	if exclusive {
		fr.Latch.Unlock()
	} else {
		fr.Latch.RUnlock()
	}
	f.pool.Unpin(fr, false)
	return nil
}

// Scan iterates over every live record in file order. fn receives the
// RID and the raw record (aliasing the page; copy to retain) and
// returns false to stop early. Pages appended after the scan started
// are not visited.
func (f *File) Scan(fn func(rid storage.RID, rec []byte) bool) error {
	for _, id := range f.Pages() {
		fr, err := f.pool.Fetch(id)
		if err != nil {
			return err
		}
		fr.Latch.RLock()
		sp := storage.AsSlotted(fr.Data())
		stop := false
		sp.Records(func(slot uint16, rec []byte) bool {
			if !fn(storage.RID{Page: id, Slot: slot}, rec) {
				stop = true
				return false
			}
			return true
		})
		fr.Latch.RUnlock()
		f.pool.Unpin(fr, false)
		if stop {
			return nil
		}
	}
	return nil
}

// Stats describes physical occupancy of the file.
type Stats struct {
	Pages       int
	LiveRecords int
	UsedBytes   int
	TotalBytes  int
	// MeanUtilization is the average per-page fraction of usable bytes
	// holding live records (the paper's Section 3.1 metric).
	MeanUtilization float64
}

// Stats scans the file's pages and reports occupancy. It reads each
// page under its latch, never the advisory maps, so the byte accounting
// is exact even while the free-space maps hold stale observations.
func (f *File) Stats() (Stats, error) {
	var st Stats
	pages := f.Pages()
	st.Pages = len(pages)
	sumUtil := 0.0
	for _, id := range pages {
		fr, err := f.pool.Fetch(id)
		if err != nil {
			return Stats{}, err
		}
		fr.Latch.RLock()
		sp := storage.AsSlotted(fr.Data())
		st.LiveRecords += sp.LiveRecords()
		st.UsedBytes += sp.UsedBytes()
		sumUtil += sp.Utilization()
		fr.Latch.RUnlock()
		f.pool.Unpin(fr, false)
		st.TotalBytes += f.pool.Disk().PageSize()
	}
	if st.Pages > 0 {
		st.MeanUtilization = sumUtil / float64(st.Pages)
	}
	return st, nil
}
