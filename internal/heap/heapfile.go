// Package heap implements heap files: unordered collections of records
// stored in slotted pages, addressed by RID, with an in-memory
// free-space map for insert placement.
//
// Inserts go through one lane: a mutex, a free-space map (pages
// bucketed by remaining insert budget), a tail page and a hot page.
// Every insert, and every InsertRun, holds the lane's mutex while it
// places; the bucketed map keeps each pick O(1), and space freed by
// deletes anywhere in the file feeds the next insert.
//
// The default placement policy refills freed space anywhere in the
// file. AppendOnly forces the append-biased policy ("append to table")
// the paper criticizes in Section 3.1 — tuple placement follows
// insertion order, not access pattern, so hot tuples end up scattered.
// internal/partition implements the paper's fix on top of this layer
// (delete + re-append clustering and hot/cold partitions).
package heap

import (
	"fmt"
	"sync"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// slotOverhead pads an insert's space requirement when picking a page:
// a possible new slot-directory entry plus slack, so the advisory map
// rarely sends an insert to a page that then refuses it.
const slotOverhead = 8

// fsmBuckets is the number of free-space buckets. Pages are bucketed
// by advisory free bytes in units of budget/fsmBuckets, so a pick scans
// at most a handful of candidates instead of every page. The bucket
// width bounds the reclaim granularity: freed space smaller than one
// quantum (budget/64 — 128B on the default 8KiB pages) may sit in the
// bottom bucket among genuinely full pages where only the boundary
// probes can find it, so fine buckets keep the strandable slack per
// page small (PostgreSQL's FSM makes the same trade at 1/256
// granularity).
const fsmBuckets = 64

// freeSpaceMap tracks the advisory insertable bytes of a file's pages,
// bucketed by remaining budget so picks are O(1). Values are advisory;
// the slotted page is the source of truth at insert time, and a failed
// insert corrects the entry (see File.tryPage). Guarded by the file's
// insert mutex.
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

// File is a heap file. It is safe for concurrent use; the method
// comments give the exact contract.
//
// Lock ordering (enforced by construction, documented in
// ARCHITECTURE.md): the insert mutex may be held while taking a frame
// latch or the meta lock; the reverse orders are forbidden — advisory
// free-space updates after Delete/Update release the frame latch before
// taking the insert mutex, and meta is never held while the insert
// mutex or a latch is awaited.
type File struct {
	pool *buffer.Pool

	// appendOnly forces inserts to ignore free space in earlier pages
	// and always fill the last page, the paper's "append to table".
	appendOnly bool
	// fillFactor caps how full inserts pack a page (1.0 = to the brim).
	// Reserved space serves in-place update headroom and, per the
	// paper's Section 2.2, the data-page join cache.
	fillFactor float64
	// budget is the per-page insertable byte cap: fillFactor × page size.
	budget int

	// mu is the insert lane. It is held across a whole placement attempt
	// (pick, fetch, page insert), so two inserters never race for one
	// page's space, and it guards the fields below it.
	mu sync.Mutex // nblb:lock heap-shard
	// fsm holds every page of the file with its advisory insertable
	// bytes: a page belongs to the file when it is in the map.
	fsm freeSpaceMap
	// tail is the page the file gained last, append-only placement's
	// target.
	tail storage.PageID
	// cur is the page that accepted the last insert — the hot page.
	// Inserts try it before consulting the free-space map, so the common
	// streak of inserts into one page skips the bucket scan. Before the
	// first insert it is InvalidPageID, which the map reads as full.
	cur storage.PageID

	// meta guards the file's page list, in allocation order, so scans
	// read it without waiting on the insert lane.
	//
	// nblb:lock heap-meta
	meta struct {
		sync.RWMutex
		pages []storage.PageID
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
// end of the table" semantics.
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

// NewFile creates an empty heap file in the pool's disk: Open over no
// pages.
func NewFile(pool *buffer.Pool, opts ...Option) (*File, error) {
	return Open(pool, nil, opts...)
}

// addPageLocked allocates and formats a fresh heap page and makes it
// the file's tail. Caller holds f.mu.
func (f *File) addPageLocked() (storage.PageID, error) {
	fr, err := f.pool.NewPage()
	if err != nil {
		return storage.InvalidPageID, err
	}
	sp := storage.AsSlotted(fr.Data())
	sp.Init()
	id := fr.ID()
	free := f.advisoryFree(sp)
	f.pool.Unpin(fr, true)
	f.registerLocked(id, free)
	return id, nil
}

// registerLocked makes id the file's newest page, free its advisory
// insertable bytes. Caller holds f.mu (taking meta under it is the
// allowed order).
func (f *File) registerLocked(id storage.PageID, free int) {
	f.meta.Lock()
	f.meta.pages = append(f.meta.pages, id)
	f.meta.Unlock()
	f.fsm.set(id, free)
	f.tail = id
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
// The record goes to the page with room that the free-space map picks —
// so deletes anywhere in the file keep feeding inserts — and the file
// only grows when no page can take it. Placement is approximate, not
// exact: free slivers below the bucket quantum (budget/64 per page) can
// be missed by the bounded boundary probes, so the file may grow while
// that much per-page slack remains — the price of O(1) picks over the
// exact linear scan.
func (f *File) Insert(rec []byte) (storage.RID, error) {
	if len(rec) == 0 {
		return storage.InvalidRID, fmt.Errorf("heap: cannot insert empty record")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.placeLocked(rec)
}

// InsertRun places a batch of records and fills rids[i] with record i's
// address, under a single acquisition of the insert mutex — the batch
// counterpart of Insert's per-record lock/unlock. Returns the number of
// records placed; on error that is also the index of the record that
// failed, and rids beyond it are untouched.
func (f *File) InsertRun(recs [][]byte, rids []storage.RID) (int, error) {
	if len(rids) < len(recs) {
		return 0, fmt.Errorf("heap: InsertRun needs %d rid slots, got %d", len(recs), len(rids))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, rec := range recs {
		if len(rec) == 0 {
			// Validated at placement time, not upfront, so the return is
			// always both the count placed and the failing index.
			return i, fmt.Errorf("heap: cannot insert empty record (run index %d)", i)
		}
		rid, err := f.placeLocked(rec)
		if err != nil {
			return i, err
		}
		rids[i] = rid
	}
	return len(recs), nil
}

// placeLocked puts rec in a page with room, or extends the file with a
// page that takes it. Caller holds f.mu.
func (f *File) placeLocked(rec []byte) (storage.RID, error) {
	rid, ok, err := f.insertLocked(rec)
	if err != nil || ok {
		return rid, err
	}
	id, err := f.addPageLocked()
	if err != nil {
		return storage.InvalidRID, err
	}
	rid, ok, err = f.tryPage(id, rec)
	if err == nil && !ok {
		err = fmt.Errorf("heap: record of %d bytes does not fit in an empty page", len(rec))
	}
	return rid, err
}

// insertLocked attempts to place rec in one of the file's pages,
// correcting stale advisory entries as it goes. Returns ok=false (no
// error) when no page fits. Caller holds f.mu.
func (f *File) insertLocked(rec []byte) (storage.RID, bool, error) {
	if f.appendOnly {
		return f.tryPage(f.tail, rec)
	}
	need := len(rec) + slotOverhead
	// Hot-page fast path: the page that took the last insert usually
	// takes the next one too, so skip the bucket scan while its advisory
	// still covers need.
	if f.fsm.free[f.cur] >= need {
		rid, ok, err := f.tryPage(f.cur, rec)
		if err != nil || ok {
			return rid, ok, err
		}
	}
	for {
		target, ok := f.fsm.pick(need)
		if !ok {
			return storage.InvalidRID, false, nil
		}
		rid, ok, err := f.tryPage(target, rec)
		if err != nil || ok {
			return rid, ok, err
		}
		// tryPage corrected the page's advisory below need, so the next
		// pick cannot return it again: the loop terminates after at most
		// one failed attempt per stale entry.
	}
}

// tryPage pins and latches target and attempts the page-level insert,
// honoring the insert-admission budget: a page holding records already
// at the budget refuses further inserts (still below 100% physically).
// Whatever happens, the advisory entry for target is refreshed with the
// truth observed under the latch. Caller holds f.mu.
func (f *File) tryPage(target storage.PageID, rec []byte) (storage.RID, bool, error) {
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
	f.fsm.set(target, free)
	if err == nil {
		f.cur = target
		f.pool.Unpin(fr, true)
		return storage.RID{Page: target, Slot: slot}, true, nil
	}
	f.pool.Unpin(fr, false)
	if err != storage.ErrNoSpace {
		return storage.InvalidRID, false, err
	}
	return storage.InvalidRID, false, nil
}

// noteFree publishes an advisory free-space observation of one of the
// file's pages. Callers must hold no frame latch and not f.mu: a frame
// latch ordered before the insert mutex would invert the insert path's
// mutex→latch order and deadlock.
func (f *File) noteFree(id storage.PageID, free int) {
	f.mu.Lock()
	if _, ok := f.fsm.free[id]; ok {
		f.fsm.set(id, free)
	}
	f.mu.Unlock()
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

// Delete removes the record at rid and returns its RecordSum, the sum
// of the record it freed. The freed space is reported to the
// free-space map, so later inserts reclaim it.
func (f *File) Delete(rid storage.RID) (sum uint32, err error) { return f.remove(rid, false, 0) }

// DeleteIf is Delete of the record at rid only while it is the one whose
// RecordSum is sum; else the slot is left and the error is storage.ErrDeleted.
func (f *File) DeleteIf(rid storage.RID, sum uint32) error {
	_, err := f.remove(rid, true, sum)
	return err
}

// remove frees the record at rid if the slot holds one and, with check,
// its RecordSum is want, and returns the freed record's sum; if it
// frees nothing, it returns storage.ErrDeleted.
func (f *File) remove(rid storage.RID, check bool, want uint32) (sum uint32, err error) {
	fr, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return 0, err
	}
	fr.Latch.Lock()
	sp := storage.AsSlotted(fr.Data())
	rec, err := sp.Get(rid.Slot)
	if err == nil {
		sum = RecordSum(rec)
	}
	freed := err == nil && (!check || sum == want) && sp.Delete(rid.Slot) == nil
	free := f.advisoryFree(sp)
	fr.Latch.Unlock()
	f.pool.Unpin(fr, freed)
	if !freed {
		return 0, storage.ErrDeleted
	}
	f.noteFree(rid.Page, free)
	return sum, nil
}

// Update is Rewrite plus, if the record moved, Delete of the old copy.
func (f *File) Update(rid storage.RID, rec []byte) (storage.RID, error) {
	to, _, err := f.Rewrite(rid, rec)
	if err == nil && to != rid {
		if _, err = f.Delete(rid); err != nil {
			_, _ = f.Delete(to) // the old copy stays, so the new one goes
			return storage.InvalidRID, fmt.Errorf("heap: relocating update: %w", err)
		}
	}
	return to, err
}

// Rewrite replaces the record at rid in place when rec fits its page,
// or else places rec as a new copy and returns its RID, the old copy
// left live: for a caller to DeleteIf, with the old copy's RecordSum
// returned as oldSum, once its index entries name the new.
func (f *File) Rewrite(rid storage.RID, rec []byte) (to storage.RID, oldSum uint32, err error) {
	fr, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return storage.InvalidRID, 0, err
	}
	fr.Latch.Lock()
	sp := storage.AsSlotted(fr.Data())
	err = sp.Update(rid.Slot, rec)
	if err == storage.ErrNoSpace {
		old, _ := sp.Get(rid.Slot) // live: Update left it as it was
		oldSum = RecordSum(old)
	}
	free := f.advisoryFree(sp)
	fr.Latch.Unlock()
	if err == nil {
		f.pool.Unpin(fr, true)
		f.noteFree(rid.Page, free)
		return rid, 0, nil
	}
	f.pool.Unpin(fr, false)
	if err != storage.ErrNoSpace {
		return storage.InvalidRID, 0, err
	}
	if to, err = f.Insert(rec); err != nil {
		return storage.InvalidRID, 0, fmt.Errorf("heap: relocating update: %w", err)
	}
	return to, oldSum, nil
}

// VisitPage pins the page and runs fn over its slotted view. The frame
// latch is taken exclusively when that succeeds without blocking
// (enabling volatile cache writes in the page's free space, Section 2.2
// of the paper), shared otherwise; fn receives which. Mutations made
// under fn are volatile, exactly like index-cache writes, unless fn
// returns true: then it changed bytes that must outlive an eviction,
// and the page is unpinned dirty. Only an exclusive visit may.
func (f *File) VisitPage(id storage.PageID, fn func(sp *storage.SlottedPage, exclusive bool) (dirty bool)) error {
	fr, err := f.pool.Fetch(id)
	if err != nil {
		return err
	}
	exclusive := fr.Latch.TryLock()
	if !exclusive {
		fr.Latch.RLock()
	}
	dirty := fn(storage.AsSlotted(fr.Data()), exclusive)
	if exclusive {
		fr.Latch.Unlock()
	} else {
		fr.Latch.RUnlock()
	}
	f.pool.Unpin(fr, dirty && exclusive)
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
