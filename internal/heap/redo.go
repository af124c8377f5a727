package heap

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// Open reconstructs a heap file over pages that already exist on disk —
// the checkpoint manifest's page list, in allocation order — or, given
// none, creates an empty one: a file always has at least one page. Each
// page is read once to seed the advisory free-space map. AppendOnly and
// the fill factor must match the file's creation (the manifest records
// them).
func Open(pool *buffer.Pool, pages []storage.PageID, opts ...Option) (*File, error) {
	f := &File{pool: pool, fillFactor: 1.0, cur: storage.InvalidPageID}
	for _, o := range opts {
		o(f)
	}
	f.budget = int(f.fillFactor * float64(pool.Disk().PageSize()))
	f.fsm = newFreeSpaceMap(f.budget)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(pages) == 0 {
		if _, err := f.addPageLocked(); err != nil {
			return nil, err
		}
	}
	for _, id := range pages {
		if err := f.adoptLocked(id); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// owns reports whether id is one of the file's pages.
func (f *File) owns(id storage.PageID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.fsm.free[id]
	return ok
}

// adoptLocked makes id the file's tail unless the file already owns it.
// An unformatted (all-zero) page is formatted as an empty heap page; a
// page of another kind is an error (the redo stream disagrees with the
// disk about page ownership). Caller holds f.mu.
func (f *File) adoptLocked(id storage.PageID) error {
	if _, known := f.fsm.free[id]; known {
		return nil
	}
	fr, err := f.pool.Fetch(id)
	if err != nil {
		return err
	}
	fr.Latch.Lock()
	sp := storage.AsSlotted(fr.Data())
	kind := storage.KindOf(sp.Data())
	dirty := kind == storage.KindUnformatted
	if dirty {
		sp.Init()
	} else if kind != storage.KindHeap {
		fr.Latch.Unlock()
		f.pool.Unpin(fr, false)
		return fmt.Errorf("heap: cannot adopt page %v: its kind is %v, not heap", id, kind)
	}
	free := f.advisoryFree(sp)
	fr.Latch.Unlock()
	f.pool.Unpin(fr, dirty)
	f.registerLocked(id, free)
	return nil
}

// Redo replays the log's heap actions one record at a time, in log
// order, onto the checkpoint image. Three things make a slot disagree
// with the record about to land in it: the replay horizon overlaps the
// image, so the slot may already hold a later record; two Applies can
// log in the opposite order to the one their effects took on a reused
// slot; and an Apply killed before it logged may have freed the slot or
// the room a logged Apply then took. So a put that finds its slot taken
// by another record, or no room on its page, is held rather than
// forced or failed. A later action on the slot resolves it, and
// FinishRedo places what is still held once the log is done.

// redoHold is one held put.
type redoHold struct {
	rec []byte
	// insert marks a put into a free slot: whatever record the slot
	// holds is not the one rec replaces, so it stays.
	insert bool
}

// RedoPut reinstalls rec at exactly rid, replacing the record there: an
// update in place. The page is adopted if unknown (formatting it when
// virgin); identical bytes are a no-op.
func (f *File) RedoPut(rid storage.RID, rec []byte) error {
	return f.redoPut(rid, rec, false)
}

// RedoInsert installs rec at rid, a slot the original insert found
// free. A live slot holding other bytes keeps them: the put is held
// until their delete replays or FinishRedo moves rec.
func (f *File) RedoInsert(rid storage.RID, rec []byte) error {
	return f.redoPut(rid, rec, true)
}

func (f *File) redoPut(rid storage.RID, rec []byte, insert bool) error {
	if h, ok := f.redoHeld[rid]; ok {
		// This put supersedes the held one, and inherits what the slot's
		// record is to it.
		insert = insert || h.insert
		delete(f.redoHeld, rid)
	}
	placed, err := f.putAt(rid, rec, insert, false)
	if err != nil || placed {
		return err
	}
	if f.redoHeld == nil {
		f.redoHeld = make(map[storage.RID]redoHold)
	}
	f.redoHeld[rid] = redoHold{rec: bytes.Clone(rec), insert: insert}
	return nil
}

// putAt puts rec at rid unless the slot holds another record and
// insert is set, or the page has no room. kill empties the slot first.
func (f *File) putAt(rid storage.RID, rec []byte, insert, kill bool) (placed bool, err error) {
	// The log may name a page allocated after the last checkpoint.
	f.mu.Lock()
	err = f.adoptLocked(rid.Page)
	f.mu.Unlock()
	if err != nil {
		return false, err
	}
	fr, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return false, err
	}
	fr.Latch.Lock()
	sp := storage.AsSlotted(fr.Data())
	dirty := false
	if kill {
		dirty = sp.Delete(rid.Slot) == nil
	}
	old, gerr := sp.Get(rid.Slot)
	taken := insert && gerr == nil && !bytes.Equal(old, rec)
	if !taken {
		err = sp.PutAt(rid.Slot, rec)
		placed = err == nil
	}
	free := f.advisoryFree(sp)
	fr.Latch.Unlock()
	f.pool.Unpin(fr, dirty || placed)
	if dirty || placed {
		f.noteFree(rid.Page, free)
	}
	if err != nil && !errors.Is(err, storage.ErrNoSpace) {
		return false, fmt.Errorf("heap: redo put at %v: %w", rid, err)
	}
	return placed, nil
}

// FinishRedo places, in RID order, every put still held once the whole
// log has replayed. A put that now fits at its RID lands there. One that
// does not, because the slot keeps a record no logged delete removed or
// the page keeps the room such a delete freed, is inserted elsewhere,
// and moved reports it so the caller can point its index entries at the
// new RID. A held update in place empties its slot first: the record
// there is the one it replaced.
func (f *File) FinishRedo(moved func(from, to storage.RID, rec []byte) error) error {
	rids := make([]storage.RID, 0, len(f.redoHeld))
	for rid := range f.redoHeld {
		rids = append(rids, rid)
	}
	slices.SortFunc(rids, func(a, b storage.RID) int { return cmp.Compare(a.Pack(), b.Pack()) })
	held := f.redoHeld
	f.redoHeld = nil
	for _, rid := range rids {
		h := held[rid]
		placed, err := f.putAt(rid, h.rec, h.insert, !h.insert)
		if err != nil {
			return err
		}
		if placed {
			continue
		}
		to, err := f.Insert(h.rec)
		if err != nil {
			return fmt.Errorf("heap: redo moving the record held at %v: %w", rid, err)
		}
		if err := moved(rid, to, h.rec); err != nil {
			return err
		}
	}
	return nil
}

// RedoRecord returns the record redo has for rid so far: a held put's,
// else a copy of the slot's. The caller must not modify it.
func (f *File) RedoRecord(rid storage.RID) ([]byte, bool) {
	if h, ok := f.redoHeld[rid]; ok {
		return h.rec, true
	}
	if !f.owns(rid.Page) {
		return nil, false
	}
	rec, err := f.Get(rid)
	return rec, err == nil
}

// RecordSum is the checksum a log record carries of a record it
// removes, so redo can tell that record from a later one in its slot.
func RecordSum(rec []byte) uint32 { return crc32.Checksum(rec, sumTable) }

var sumTable = crc32.MakeTable(crc32.Castagnoli)

// RedoDelete removes the record at rid if it is the one the logged
// delete removed: sum is that record's RecordSum. Anything else in the
// slot is a later record and stays; an unknown page or a dead slot is a
// no-op. A held put of the record removed is dropped instead, and an
// update's also empties the slot, which holds the record it replaced.
// removed reports whether the slot's record went.
func (f *File) RedoDelete(rid storage.RID, sum uint32) (removed bool, err error) {
	kill := false
	if h, ok := f.redoHeld[rid]; ok && RecordSum(h.rec) == sum {
		delete(f.redoHeld, rid)
		if h.insert {
			return false, nil
		}
		kill = true
	}
	if !f.owns(rid.Page) {
		return false, nil
	}
	if _, err = f.remove(rid, !kill, sum); err == storage.ErrDeleted {
		return false, nil
	}
	return err == nil, err
}
