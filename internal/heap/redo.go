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
// the checkpoint manifest's page list, in allocation order. Each page
// is read once to seed the advisory free-space maps; ownership is dealt
// round-robin across the insert shards. Options must match the ones the
// file was created with (the manifest records them).
func Open(pool *buffer.Pool, pages []storage.PageID, opts ...Option) (*File, error) {
	f := newShell(pool, opts...)
	if len(pages) == 0 {
		// Match NewFile's invariant: a file always owns at least one page.
		s := &f.shards[0]
		s.mu.Lock()
		_, err := f.addPageLocked(0)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	for i, id := range pages {
		if err := f.adoptPageShard(id, i%len(f.shards)); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// adoptPage registers a page the file does not yet own — the redo path
// hits this when the log references a page allocated after the last
// checkpoint. A virgin (all-zero) page is formatted as an empty heap
// page; a page carrying non-heap flags is an error (the redo stream
// disagrees with the disk about page ownership).
func (f *File) adoptPage(id storage.PageID) error {
	f.meta.RLock()
	_, known := f.meta.owner[id]
	n := len(f.meta.pages)
	f.meta.RUnlock()
	if known {
		return nil
	}
	return f.adoptPageShard(id, n%len(f.shards))
}

// adoptPageShard adopts id into shard si. Recovery is single-threaded,
// so the shard mutex here only preserves the documented lock order
// (shard before latch, meta inside shard).
func (f *File) adoptPageShard(id storage.PageID, si int) error {
	s := &f.shards[si]
	s.mu.Lock()
	defer s.mu.Unlock()
	fr, err := f.pool.Fetch(id)
	if err != nil {
		return err
	}
	fr.Latch.Lock()
	sp := storage.AsSlotted(fr.Data())
	dirty := false
	switch sp.Flags() {
	case pageFlagHeap:
	case 0:
		sp.Init()
		sp.SetFlags(pageFlagHeap)
		dirty = true
	default:
		flags := sp.Flags()
		fr.Latch.Unlock()
		f.pool.Unpin(fr, false)
		return fmt.Errorf("heap: cannot adopt page %v: flags %#x are not a heap page's", id, flags)
	}
	free := f.advisoryFree(sp)
	fr.Latch.Unlock()
	f.pool.Unpin(fr, dirty)
	f.meta.Lock()
	f.meta.pages = append(f.meta.pages, id)
	f.meta.owner[id] = si
	f.meta.Unlock()
	s.fsm.set(id, free)
	s.tail = id
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
	if err := f.adoptPage(rid.Page); err != nil {
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
	f.meta.RLock()
	_, known := f.meta.owner[rid.Page]
	f.meta.RUnlock()
	if !known {
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
func (f *File) RedoDelete(rid storage.RID, sum uint32) error {
	kill := false
	if h, ok := f.redoHeld[rid]; ok && RecordSum(h.rec) == sum {
		delete(f.redoHeld, rid)
		if h.insert {
			return nil
		}
		kill = true
	}
	f.meta.RLock()
	_, known := f.meta.owner[rid.Page]
	f.meta.RUnlock()
	if !known {
		return nil
	}
	fr, err := f.pool.Fetch(rid.Page)
	if err != nil {
		return err
	}
	fr.Latch.Lock()
	sp := storage.AsSlotted(fr.Data())
	deleted := false
	if rec, err := sp.Get(rid.Slot); err == nil && (kill || RecordSum(rec) == sum) {
		deleted = sp.Delete(rid.Slot) == nil
	}
	free := f.advisoryFree(sp)
	fr.Latch.Unlock()
	f.pool.Unpin(fr, deleted)
	if deleted {
		f.noteFree(rid.Page, free)
	}
	return nil
}
