// Package storage provides the on-disk building blocks: page
// identifiers, record identifiers, page kinds, disk managers (in-memory,
// file backed, and an I/O-counting wrapper used by the simulations), and
// the slotted-page layout heap pages are built on.
package storage

import "fmt"

// PageID identifies a page within a disk manager. Page 0 is reserved
// as a metadata page; InvalidPageID is the zero value so uninitialized
// references are self-evidently invalid.
type PageID uint64

// InvalidPageID is the reserved "no page" value.
const InvalidPageID PageID = 0

// String renders the page id.
func (p PageID) String() string { return fmt.Sprintf("page:%d", uint64(p)) }

// RID identifies a record: the page holding it and the slot within that
// page. RIDs are what B+Tree leaves point at and (Section 4.2) what a
// "semantic ID" can embed.
type RID struct {
	Page PageID
	Slot uint16
}

// InvalidRID is the zero RID, pointing at the reserved page 0.
var InvalidRID = RID{}

// Valid reports whether the RID points at a real page.
func (r RID) Valid() bool { return r.Page != InvalidPageID }

// String renders the RID.
func (r RID) String() string { return fmt.Sprintf("rid(%d,%d)", uint64(r.Page), r.Slot) }

// Pack encodes the RID into a uint64: 48 bits of page, 16 bits of slot.
// The packed form is what gets stored in index leaves and semantic IDs.
func (r RID) Pack() uint64 {
	return uint64(r.Page)<<16 | uint64(r.Slot)
}

// UnpackRID inverts RID.Pack.
func UnpackRID(v uint64) RID {
	return RID{Page: PageID(v >> 16), Slot: uint16(v)}
}

// DefaultPageSize is the page size used throughout unless overridden:
// 8 KiB, a common OLTP choice (InnoDB uses 16 KiB, SQL Server 8 KiB).
const DefaultPageSize = 8192

// MinPageSize bounds how small a page a disk manager accepts; below
// this the slotted header and a single slot don't fit.
const MinPageSize = 128

// PageKind is byte 0 of every page: which layout the rest of it has.
// A page's kind is read and set here only, by the heap and the B+tree
// alike; the file's format version is the manifest's, not the page's.
type PageKind uint8

const (
	// KindUnformatted is an all-zero page: allocated, never formatted.
	KindUnformatted PageKind = iota
	KindIndexLeaf
	KindIndexInternal
	KindHeap
)

// KindOf returns the kind of the page whose bytes are page.
func KindOf(page []byte) PageKind { return PageKind(page[0]) }

// SetKind makes k the kind of the page whose bytes are page.
func SetKind(page []byte, k PageKind) { page[0] = byte(k) }

var kindNames = [...]string{"unformatted", "index leaf", "index internal", "heap"}

// String names the kind for errors.
func (k PageKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("unknown kind %d", uint8(k))
}
