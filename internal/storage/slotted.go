package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
)

// SlottedPage lays records out in the classic slotted-page format used
// by heap pages:
//
//	offset 0                                            pageSize
//	| header | slot directory → ... free ... ← record data |
//
// The slot directory grows upward from the header; record payloads grow
// downward from the end of the page. Each 4-byte slot holds the record's
// offset and length; a dead (deleted) slot has offset 0, which can never
// be a real record offset because the header occupies it.
//
// Header layout (12 bytes):
//
//	[0:2)  numSlots
//	[2:4)  freeLower  (first byte past the slot directory)
//	[4:6)  freeUpper  (first byte of the record data region)
//	[6:8)  flags      (page type tag, set by higher layers)
//	[8:12) reserved   (page LSN / CSN space for higher layers)
type SlottedPage struct {
	data []byte
}

const (
	slottedHeaderSize = 12
	slotSize          = 4

	offNumSlots  = 0
	offFreeLower = 2
	offFreeUpper = 4
	offFlags     = 6
	offReserved  = 8
)

// deadSlotOffset marks a deleted slot.
const deadSlotOffset = 0

// ErrNoSpace is returned when a page cannot hold a record even after
// compaction. Callers relocate the record to another page.
var ErrNoSpace = fmt.Errorf("storage: not enough free space in page")

// ErrDeleted reports a read of a slot whose record has been deleted.
// Index scans racing a concurrent delete check for it with errors.Is
// and treat the row as vanished rather than failing the scan.
var ErrDeleted = fmt.Errorf("storage: slot deleted")

// AsSlotted interprets data (a full page buffer) as a slotted page. It
// does not validate contents; call Init on fresh pages first.
func AsSlotted(data []byte) *SlottedPage {
	return &SlottedPage{data: data}
}

// Init formats the page as an empty slotted page, erasing any contents.
func (p *SlottedPage) Init() {
	for i := range p.data {
		p.data[i] = 0
	}
	p.setNumSlots(0)
	p.setFreeLower(slottedHeaderSize)
	p.setFreeUpper(uint16(len(p.data)))
}

// Data returns the underlying page buffer.
func (p *SlottedPage) Data() []byte { return p.data }

// Flags returns the page-type flags word maintained by higher layers.
func (p *SlottedPage) Flags() uint16 {
	return binary.LittleEndian.Uint16(p.data[offFlags:])
}

// SetFlags stores the page-type flags word.
func (p *SlottedPage) SetFlags(f uint16) {
	binary.LittleEndian.PutUint16(p.data[offFlags:], f)
}

// Reserved returns the 4-byte reserved header word (used by the index
// cache for the page CSN).
func (p *SlottedPage) Reserved() uint32 {
	return binary.LittleEndian.Uint32(p.data[offReserved:])
}

// SetReserved stores the 4-byte reserved header word.
func (p *SlottedPage) SetReserved(v uint32) {
	binary.LittleEndian.PutUint32(p.data[offReserved:], v)
}

func (p *SlottedPage) numSlots() int {
	return int(binary.LittleEndian.Uint16(p.data[offNumSlots:]))
}

func (p *SlottedPage) setNumSlots(n int) {
	binary.LittleEndian.PutUint16(p.data[offNumSlots:], uint16(n))
}

func (p *SlottedPage) freeLower() int {
	return int(binary.LittleEndian.Uint16(p.data[offFreeLower:]))
}

func (p *SlottedPage) setFreeLower(v int) {
	binary.LittleEndian.PutUint16(p.data[offFreeLower:], uint16(v))
}

func (p *SlottedPage) freeUpper() int {
	return int(binary.LittleEndian.Uint16(p.data[offFreeUpper:]))
}

func (p *SlottedPage) setFreeUpper(v uint16) {
	binary.LittleEndian.PutUint16(p.data[offFreeUpper:], v)
}

func (p *SlottedPage) slot(i int) (off, length int) {
	base := slottedHeaderSize + i*slotSize
	off = int(binary.LittleEndian.Uint16(p.data[base:]))
	length = int(binary.LittleEndian.Uint16(p.data[base+2:]))
	return off, length
}

func (p *SlottedPage) setSlot(i, off, length int) {
	base := slottedHeaderSize + i*slotSize
	binary.LittleEndian.PutUint16(p.data[base:], uint16(off))
	binary.LittleEndian.PutUint16(p.data[base+2:], uint16(length))
}

// NumSlots returns the size of the slot directory, including dead slots.
func (p *SlottedPage) NumSlots() int { return p.numSlots() }

// FreeSpace returns the bytes available between the slot directory and
// the record data, i.e. the most a single insert could use (including
// a possible new slot entry).
func (p *SlottedPage) FreeSpace() int {
	return p.freeUpper() - p.freeLower()
}

// FreeBounds returns the [lo, hi) byte offsets of the free region —
// the space the Section 2.2 join cache recycles in heap pages.
func (p *SlottedPage) FreeBounds() (lo, hi int) {
	return p.freeLower(), p.freeUpper()
}

// LiveRecords returns the number of non-dead slots.
func (p *SlottedPage) LiveRecords() int {
	n := 0
	for i := 0; i < p.numSlots(); i++ {
		if off, _ := p.slot(i); off != deadSlotOffset {
			n++
		}
	}
	return n
}

// UsedBytes returns the bytes occupied by live record payloads.
func (p *SlottedPage) UsedBytes() int {
	n := 0
	for i := 0; i < p.numSlots(); i++ {
		if off, l := p.slot(i); off != deadSlotOffset {
			n += l
		}
	}
	return n
}

// Insert stores rec in the page and returns its slot number. Dead slots
// are reused. If contiguous free space is insufficient but total free
// space (after compaction) suffices, the page is compacted first.
// Returns ErrNoSpace when the record cannot fit.
func (p *SlottedPage) Insert(rec []byte) (uint16, error) {
	if len(rec) == 0 {
		return 0, fmt.Errorf("storage: cannot insert empty record")
	}
	slotIdx := -1
	for i := 0; i < p.numSlots(); i++ {
		if off, _ := p.slot(i); off == deadSlotOffset {
			slotIdx = i
			break
		}
	}
	need := len(rec)
	if slotIdx < 0 {
		need += slotSize
	}
	if p.FreeSpace() < need {
		if p.reclaimable() >= need-p.FreeSpace() {
			p.Compact()
		}
		if p.FreeSpace() < need {
			return 0, ErrNoSpace
		}
	}
	if slotIdx < 0 {
		slotIdx = p.numSlots()
		p.setNumSlots(slotIdx + 1)
		p.setFreeLower(p.freeLower() + slotSize)
	}
	newUpper := p.freeUpper() - len(rec)
	copy(p.data[newUpper:], rec)
	p.setFreeUpper(uint16(newUpper))
	p.setSlot(slotIdx, newUpper, len(rec))
	return uint16(slotIdx), nil
}

// PutAt forces the given slot to hold rec — the physical-redo primitive
// crash recovery uses to reconstruct a page to a logged post-state.
// A live slot holding identical bytes is a no-op (idempotent replay); a
// live slot with different bytes is replaced; a dead or not-yet-existing
// slot is (re)created, extending the slot directory with dead entries as
// needed. Returns ErrNoSpace, leaving the page unchanged, when the
// record cannot fit even after compaction: a redo replayed onto a page
// image that already holds later, larger records of its neighbours.
func (p *SlottedPage) PutAt(slot uint16, rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("storage: cannot put empty record")
	}
	old := 0 // bytes of the live record rec replaces
	if int(slot) < p.numSlots() {
		if off, l := p.slot(int(slot)); off != deadSlotOffset {
			if l == len(rec) && bytes.Equal(p.data[off:off+l], rec) {
				return nil
			}
			old = l
		}
	}
	need := len(rec)
	grow := 0
	if int(slot) >= p.numSlots() {
		grow = int(slot) - p.numSlots() + 1
		need += grow * slotSize
	}
	if p.FreeSpace() < need && p.reclaimable()+old < need-p.FreeSpace() {
		return ErrNoSpace
	}
	if old > 0 {
		p.setSlot(int(slot), deadSlotOffset, 0)
	}
	if p.FreeSpace() < need {
		p.Compact()
	}
	if grow > 0 {
		base := p.numSlots()
		for i := 0; i < grow; i++ {
			p.setSlot(base+i, deadSlotOffset, 0)
		}
		p.setNumSlots(int(slot) + 1)
		p.setFreeLower(p.freeLower() + grow*slotSize)
	}
	newUpper := p.freeUpper() - len(rec)
	copy(p.data[newUpper:], rec)
	p.setFreeUpper(uint16(newUpper))
	p.setSlot(int(slot), newUpper, len(rec))
	return nil
}

// AvailableBytes returns the bytes an insert could use after a
// compaction: contiguous free space plus reclaimable dead-record bytes.
// Heap free-space maps track this, not FreeSpace, so pages emptied by
// deletes are refilled.
func (p *SlottedPage) AvailableBytes() int {
	return p.FreeSpace() + p.reclaimable()
}

// reclaimable returns the bytes below freeUpper occupied by dead
// records, i.e. what Compact would recover.
func (p *SlottedPage) reclaimable() int {
	liveBytes := 0
	for i := 0; i < p.numSlots(); i++ {
		if off, l := p.slot(i); off != deadSlotOffset {
			liveBytes += l
		}
	}
	return len(p.data) - p.freeUpper() - liveBytes
}

// Get returns the record in the given slot. The returned slice aliases
// the page buffer; callers must copy if they outlive the pin.
func (p *SlottedPage) Get(slot uint16) ([]byte, error) {
	if int(slot) >= p.numSlots() {
		return nil, fmt.Errorf("storage: slot %d out of range (page has %d)", slot, p.numSlots())
	}
	off, l := p.slot(int(slot))
	if off == deadSlotOffset {
		return nil, fmt.Errorf("storage: slot %d: %w", slot, ErrDeleted)
	}
	return p.data[off : off+l], nil
}

// Delete tombstones the slot. The payload bytes become reclaimable at
// the next compaction.
func (p *SlottedPage) Delete(slot uint16) error {
	if int(slot) >= p.numSlots() {
		return fmt.Errorf("storage: slot %d out of range (page has %d)", slot, p.numSlots())
	}
	off, _ := p.slot(int(slot))
	if off == deadSlotOffset {
		return fmt.Errorf("storage: slot %d already deleted", slot)
	}
	p.setSlot(int(slot), deadSlotOffset, 0)
	return nil
}

// Update replaces the record in the slot. If the new payload fits in the
// old footprint it is updated in place; otherwise the old copy is freed
// and the record reinserted in this page if space allows. Returns
// ErrNoSpace if the page cannot hold the new payload (the caller then
// relocates the record and leaves a forwarding stub, handled by the heap
// layer).
func (p *SlottedPage) Update(slot uint16, rec []byte) error {
	if int(slot) >= p.numSlots() {
		return fmt.Errorf("storage: slot %d out of range (page has %d)", slot, p.numSlots())
	}
	off, l := p.slot(int(slot))
	if off == deadSlotOffset {
		return fmt.Errorf("storage: slot %d is deleted", slot)
	}
	if len(rec) <= l {
		copy(p.data[off:], rec)
		p.setSlot(int(slot), off, len(rec))
		return nil
	}
	// Free the old copy, then try to place the new one.
	p.setSlot(int(slot), deadSlotOffset, 0)
	if p.FreeSpace() < len(rec) {
		if p.reclaimable() >= len(rec)-p.FreeSpace() {
			p.Compact()
		}
		if p.FreeSpace() < len(rec) {
			// Roll back the tombstone so the record is still readable.
			p.setSlot(int(slot), off, l)
			return ErrNoSpace
		}
	}
	newUpper := p.freeUpper() - len(rec)
	copy(p.data[newUpper:], rec)
	p.setFreeUpper(uint16(newUpper))
	p.setSlot(int(slot), newUpper, len(rec))
	return nil
}

// Compact slides live records to the end of the page, eliminating holes
// left by deletes, and updates every slot offset. Slot numbers (and
// therefore RIDs) are unchanged.
//
// It runs on every update that finds its page fragmented, so it makes
// no garbage: the live slots are sorted by offset as packed
// (offset, slot) keys in scratch that stays on the stack for up to 512
// live records — an 8 KiB page of 16-byte rows — and spills to the heap
// only past that.
func (p *SlottedPage) Compact() {
	var scratch [512]uint32
	keys := scratch[:0]
	for i := 0; i < p.numSlots(); i++ {
		if off, _ := p.slot(i); off != deadSlotOffset {
			keys = append(keys, uint32(off)<<16|uint32(i))
		}
	}
	slices.Sort(keys)
	// Move records from highest offset to lowest so in-page copies never
	// overwrite not-yet-moved data.
	upper := len(p.data)
	for _, k := range slices.Backward(keys) {
		slot, off := int(k&0xFFFF), int(k>>16)
		_, length := p.slot(slot)
		upper -= length
		copy(p.data[upper:upper+length], p.data[off:off+length])
		p.setSlot(slot, upper, length)
	}
	p.setFreeUpper(uint16(upper))
	// Zero the reclaimed free region: stale record bytes must never be
	// readable as join-cache entries (Section 2.2) after the region
	// grows.
	clear(p.data[p.freeLower():upper])
}

// Records iterates over live records in slot order, calling fn with the
// slot number and payload. The payload aliases the page buffer.
func (p *SlottedPage) Records(fn func(slot uint16, rec []byte) bool) {
	for i := 0; i < p.numSlots(); i++ {
		off, l := p.slot(i)
		if off == deadSlotOffset {
			continue
		}
		if !fn(uint16(i), p.data[off:off+l]) {
			return
		}
	}
}

// Utilization returns the fraction of the page (excluding the header)
// holding live record bytes — the paper's "page utilization" metric
// (Section 3.1 reports revision pages at 2% for hot data).
func (p *SlottedPage) Utilization() float64 {
	usable := len(p.data) - slottedHeaderSize
	if usable <= 0 {
		return 0
	}
	return float64(p.UsedBytes()) / float64(usable)
}
