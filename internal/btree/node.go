// Package btree implements the B+Tree index with the page anatomy of
// the paper's Figure 1:
//
//	offset 0                                                    pageSize
//	| header | directory → | ..... free space ..... | ← key cells | prefix | footer |
//
// The directory (2-byte sorted cell pointers) grows upward from the
// header; key cells grow downward from the page prefix; the free space
// in the middle is exactly the region Section 2.1 recycles as the index
// cache. Key inserts overwrite the periphery of that region freely —
// the cache (internal/idxcache) is designed to survive that.
//
// Every page stores the bytes its keys share once (prefix truncation,
// Bayer & Unterauer 1977): the page prefix sits at the top of the
// key-cell region, right below the footer, and each cell stores only
// its key's suffix. Splits, root growth and bulk builds set the prefix
// to the longest common prefix of the page's first and last key (every
// key between them shares it too); an insert outside the prefix shrinks
// it in place, re-encoding the cells; a delete never touches it. A
// stored suffix is not a key, so nothing outside this file reads one:
// callers compare through cmpKey and copy through appendKey.
//
// Values are fixed 8-byte payloads: packed RIDs in leaves, child page
// ids in internal nodes. Keys are opaque memcomparable byte strings
// (tuple.EncodeKey), so composite keys need no schema here.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
)

// Node header layout (nodeHeaderSize bytes at offset 0):
//
//	[0:2)   type/flags: nodeLeaf or nodeInternal
//	[2:4)   nKeys
//	[4:6)   dirEnd    first byte past the directory
//	[6:8)   keyStart  first byte of the key-cell region
//	[8:16)  right sibling page id (leaves; 0 = none)
//	[16:24) leftmost child page id (internal nodes)
//	[24:28) CSNp — the page cache sequence number (Section 2.1.2)
//	[28:32) appliedSeq — predicate-log position applied to this page
//	[32:34) cacheEntrySize — slot width the cache last used on this page
//	[34:38) version — bumped on every directory reshuffle (insert,
//	        delete, compaction); cursors use it to detect concurrent
//	        mutation and re-validate their position instead of trusting
//	        a stale directory index
//	[38:40) prefixLen — length of the page prefix, whose bytes are the
//	        prefixLen bytes right below the footer
//	[40:48) left sibling page id (leaves; 0 = none) — makes reverse
//	        scans symmetric with forward ones (one sibling fetch per
//	        leaf instead of one descent per leaf)
//
// A key cell is [suffix length:2][suffix][value:8]; the key it stores
// is the page prefix followed by the suffix.
//
// Footer: 4-byte magic at the very end of the page. Cache writes and key
// inserts must never touch it; integrity checks verify that.
const (
	nodeHeaderSize = 48
	nodeFooterSize = 4

	offType        = 0
	offNKeys       = 2
	offDirEnd      = 4
	offKeyStart    = 6
	offRightSib    = 8
	offLeftChild   = 16
	offCSN         = 24
	offAppliedSeq  = 28
	offCacheEntry  = 32
	offVersion     = 34
	offPrefixLen   = 38
	offLeftSib     = 40
	dirEntrySize   = 2
	cellHeaderSize = 2 // uint16 suffix length
	valueSize      = 8
)

// footerMagic marks a well-formed index page end. It doubles as the
// page-format version: 0xB17C0DE5 had a 40-byte header, 0xB17C0DE6
// added the left-sibling link, and 0xB17C0DE7 stores keys as suffixes
// of a page prefix — pages persisted by an older layout fail footerOK
// loudly instead of being misread.
const footerMagic uint32 = 0xB17C0DE7

// Node type tags.
const (
	nodeLeaf     uint16 = 1
	nodeInternal uint16 = 2
)

// ErrNodeFull signals the caller must split before inserting.
var errNodeFull = fmt.Errorf("btree: node full")

// node wraps a page buffer with the index-node layout. It holds no
// state of its own; everything lives in the page bytes.
type node struct {
	data []byte
}

func asNode(data []byte) node { return node{data: data} }

// initNode formats the buffer as an empty node of the given type, with
// an empty page prefix.
func initNode(data []byte, typ uint16) node {
	for i := range data {
		data[i] = 0
	}
	n := node{data: data}
	n.setType(typ)
	n.setNKeys(0)
	n.setDirEnd(nodeHeaderSize)
	n.setKeyStart(n.pageEnd())
	binary.LittleEndian.PutUint32(data[len(data)-nodeFooterSize:], footerMagic)
	return n
}

func (n node) typ() uint16      { return binary.LittleEndian.Uint16(n.data[offType:]) }
func (n node) setType(t uint16) { binary.LittleEndian.PutUint16(n.data[offType:], t) }
func (n node) isLeaf() bool     { return n.typ() == nodeLeaf }

func (n node) nKeys() int     { return int(binary.LittleEndian.Uint16(n.data[offNKeys:])) }
func (n node) setNKeys(k int) { binary.LittleEndian.PutUint16(n.data[offNKeys:], uint16(k)) }

func (n node) dirEnd() int     { return int(binary.LittleEndian.Uint16(n.data[offDirEnd:])) }
func (n node) setDirEnd(v int) { binary.LittleEndian.PutUint16(n.data[offDirEnd:], uint16(v)) }

func (n node) keyStart() int     { return int(binary.LittleEndian.Uint16(n.data[offKeyStart:])) }
func (n node) setKeyStart(v int) { binary.LittleEndian.PutUint16(n.data[offKeyStart:], uint16(v)) }

func (n node) prefixLen() int     { return int(binary.LittleEndian.Uint16(n.data[offPrefixLen:])) }
func (n node) setPrefixLen(v int) { binary.LittleEndian.PutUint16(n.data[offPrefixLen:], uint16(v)) }

// pageEnd is the first byte of the footer.
func (n node) pageEnd() int { return len(n.data) - nodeFooterSize }

// prefix returns the bytes every key on the page starts with (aliases
// the page).
func (n node) prefix() []byte {
	pf := n.pageEnd()
	return n.data[pf-n.prefixLen() : pf]
}

func (n node) rightSibling() uint64 { return binary.LittleEndian.Uint64(n.data[offRightSib:]) }
func (n node) setRightSibling(v uint64) {
	binary.LittleEndian.PutUint64(n.data[offRightSib:], v)
}

func (n node) leftSibling() uint64 { return binary.LittleEndian.Uint64(n.data[offLeftSib:]) }
func (n node) setLeftSibling(v uint64) {
	binary.LittleEndian.PutUint64(n.data[offLeftSib:], v)
}

func (n node) leftmostChild() uint64 { return binary.LittleEndian.Uint64(n.data[offLeftChild:]) }
func (n node) setLeftmostChild(v uint64) {
	binary.LittleEndian.PutUint64(n.data[offLeftChild:], v)
}

// CSN returns the page cache sequence number CSNp.
func (n node) CSN() uint32     { return binary.LittleEndian.Uint32(n.data[offCSN:]) }
func (n node) setCSN(v uint32) { binary.LittleEndian.PutUint32(n.data[offCSN:], v) }

func (n node) appliedSeq() uint32 { return binary.LittleEndian.Uint32(n.data[offAppliedSeq:]) }
func (n node) setAppliedSeq(v uint32) {
	binary.LittleEndian.PutUint32(n.data[offAppliedSeq:], v)
}

func (n node) cacheEntrySize() int {
	return int(binary.LittleEndian.Uint16(n.data[offCacheEntry:]))
}
func (n node) setCacheEntrySize(v int) {
	binary.LittleEndian.PutUint16(n.data[offCacheEntry:], uint16(v))
}

// version counts directory reshuffles. A cursor holding a cached
// directory position may keep using it only while the version is
// unchanged; any mutation that moves entries bumps it. Wrap-around is
// harmless: equality is all that is checked, and a cursor cannot miss
// 2³² bumps between two latch acquisitions of the same leaf.
func (n node) version() uint32 { return binary.LittleEndian.Uint32(n.data[offVersion:]) }
func (n node) bumpVersion() {
	binary.LittleEndian.PutUint32(n.data[offVersion:], n.version()+1)
}

// setVersion overwrites the version counter — used by the in-place
// root grow to carry the counter forward (bumped) across the re-init,
// so a cursor pinned at the old root-as-leaf always sees a change.
func (n node) setVersion(v uint32) {
	binary.LittleEndian.PutUint32(n.data[offVersion:], v)
}

// footerOK verifies the footer magic survived.
func (n node) footerOK() bool {
	return binary.LittleEndian.Uint32(n.data[n.pageEnd():]) == footerMagic
}

// freeSpace returns the bytes between the directory and the key cells —
// the cache region's current extent.
func (n node) freeSpace() int { return n.keyStart() - n.dirEnd() }

// freeRegion returns the [lo, hi) bounds of the free space.
func (n node) freeRegion() (lo, hi int) { return n.dirEnd(), n.keyStart() }

// dirEntry returns the cell offset stored in directory position i.
func (n node) dirEntry(i int) int {
	return int(binary.LittleEndian.Uint16(n.data[nodeHeaderSize+i*dirEntrySize:]))
}

func (n node) setDirEntry(i, off int) {
	binary.LittleEndian.PutUint16(n.data[nodeHeaderSize+i*dirEntrySize:], uint16(off))
}

// storedSuffix returns the suffix the cell at directory position i
// stores (aliases the page). It is the key minus the page prefix, so it
// is only ever read next to prefix(), in this file.
func (n node) storedSuffix(i int) []byte {
	off := n.dirEntry(i)
	slen := int(binary.LittleEndian.Uint16(n.data[off:]))
	return n.data[off+cellHeaderSize : off+cellHeaderSize+slen]
}

// cellValue returns the 8-byte value of the cell at off.
func (n node) cellValue(off int) uint64 {
	slen := int(binary.LittleEndian.Uint16(n.data[off:]))
	return binary.LittleEndian.Uint64(n.data[off+cellHeaderSize+slen:])
}

func (n node) setCellValue(off int, v uint64) {
	slen := int(binary.LittleEndian.Uint16(n.data[off:]))
	binary.LittleEndian.PutUint64(n.data[off+cellHeaderSize+slen:], v)
}

// keyLen returns the length of the key at directory position i.
func (n node) keyLen(i int) int { return n.prefixLen() + len(n.storedSuffix(i)) }

// appendKey appends the key at directory position i to dst.
func (n node) appendKey(dst []byte, i int) []byte {
	return append(append(dst, n.prefix()...), n.storedSuffix(i)...)
}

// cmpKey compares the key at directory position i with probe, as
// bytes.Compare(key(i), probe) would.
func (n node) cmpKey(i int, probe []byte) int {
	p := n.prefix()
	m := min(len(p), len(probe))
	if c := bytes.Compare(p[:m], probe[:m]); c != 0 {
		return c
	}
	if len(probe) < len(p) {
		return 1 // the key extends probe
	}
	return bytes.Compare(n.storedSuffix(i), probe[len(p):])
}

// covers reports whether key lies within [key(0), key(nKeys-1)]. Both
// ends start with the page prefix, and so does every key between them:
// a key without it is outside, and one with it is placed by two suffix
// comparisons.
func (n node) covers(key []byte) bool {
	k := n.nKeys()
	p := n.prefix()
	if k == 0 || len(key) < len(p) || !bytes.Equal(p, key[:len(p)]) {
		return false
	}
	rest := key[len(p):]
	return bytes.Compare(n.storedSuffix(0), rest) <= 0 && bytes.Compare(n.storedSuffix(k-1), rest) >= 0
}

// value returns the value at directory position i.
func (n node) value(i int) uint64 { return n.cellValue(n.dirEntry(i)) }

// cellSize returns the bytes a cell with the given suffix length
// occupies.
func cellSize(suffixLen int) int { return cellHeaderSize + suffixLen + valueSize }

// sharedPrefix returns the length of the longest common prefix of a
// and b.
func sharedPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// search finds the directory position of key, or the position where it
// would be inserted, and whether it was found. The probe is compared
// with the page prefix once (not at all when the page has none, which
// keeps pages of unrelated keys as fast as whole-key pages); the binary
// search then compares suffixes.
func (n node) search(key []byte) (int, bool) {
	k := n.nKeys()
	rest := key
	if p := n.prefix(); len(p) > 0 {
		m := min(len(p), len(key))
		switch bytes.Compare(p[:m], key[:m]) {
		case 1:
			return 0, false
		case -1:
			return k, false
		}
		if len(key) < len(p) {
			return 0, false // every key on the page extends the probe
		}
		rest = key[len(p):]
	}
	lo, hi := 0, k
	for lo < hi {
		mid := (lo + hi) / 2
		switch bytes.Compare(n.storedSuffix(mid), rest) {
		case -1:
			lo = mid + 1
		case 0:
			return mid, true
		default:
			hi = mid
		}
	}
	return lo, false
}

// childFor returns the child page id covering key in an internal node:
// the leftmost child if key < key(0), else the value of the largest
// key ≤ key.
func (n node) childFor(key []byte) uint64 {
	pos, found := n.search(key)
	if found {
		return n.value(pos)
	}
	if pos == 0 {
		return n.leftmostChild()
	}
	return n.value(pos - 1)
}

// insertCost returns the free bytes inserting key takes — its cell and
// directory entry, plus, when key falls outside the page prefix, the
// growth of every other cell re-encoded under the shorter prefix (less
// the prefix bytes that frees) — and the prefix length afterwards.
func (n node) insertCost(key []byte) (cost, plen int) {
	plen = n.prefixLen()
	if l := sharedPrefix(n.prefix(), key); l < plen {
		grow := plen - l
		cost = (n.nKeys() - 1) * grow
		plen = l
	}
	return cost + cellSize(len(key)-plen) + dirEntrySize, plen
}

// canInsert reports whether key fits.
func (n node) canInsert(key []byte) bool {
	cost, _ := n.insertCost(key)
	return n.freeSpace() >= cost
}

// canAbsorb reports whether an internal node surely fits any separator
// of at most sepLen bytes that a split below its child covering key can
// push up. A child between two of the node's keys only holds keys that
// share the page prefix; an edge child's separator may share none of
// it, which costs a re-encode of every other cell at worst.
func (n node) canAbsorb(key []byte, sepLen int) bool {
	cost := cellSize(sepLen) + dirEntrySize
	k := n.nKeys()
	if pos, found := n.search(key); (found && pos == k-1) || (!found && (pos == 0 || pos == k)) {
		cost += max(k-1, 0) * n.prefixLen()
	}
	return n.freeSpace() >= cost
}

// insertAt places (key, value) at directory position pos, shifting the
// directory and carving the cell out of the free region's key side.
// The overwritten free-space bytes are exactly "the periphery of the
// cache space" the paper lets index inserts clobber. A key outside the
// page prefix shrinks the prefix first, re-encoding every cell.
func (n node) insertAt(pos int, key []byte, value uint64) error {
	cost, plen := n.insertCost(key)
	if n.freeSpace() < cost {
		return errNodeFull
	}
	if plen < n.prefixLen() {
		n.reencode(plen)
	}
	// Carve the cell below keyStart.
	suffix := key[plen:]
	newStart := n.keyStart() - cellSize(len(suffix))
	binary.LittleEndian.PutUint16(n.data[newStart:], uint16(len(suffix)))
	copy(n.data[newStart+cellHeaderSize:], suffix)
	binary.LittleEndian.PutUint64(n.data[newStart+cellHeaderSize+len(suffix):], value)
	n.setKeyStart(newStart)
	// Shift directory entries right of pos.
	k := n.nKeys()
	copy(n.data[nodeHeaderSize+(pos+1)*dirEntrySize:nodeHeaderSize+(k+1)*dirEntrySize],
		n.data[nodeHeaderSize+pos*dirEntrySize:nodeHeaderSize+k*dirEntrySize])
	n.setDirEntry(pos, newStart)
	n.setNKeys(k + 1)
	n.setDirEnd(nodeHeaderSize + (k+1)*dirEntrySize)
	n.bumpVersion()
	return nil
}

// deleteAt removes the entry at directory position pos, compacts the
// key-cell region, and zeroes the bytes returned to the free region so
// stale key bytes can never masquerade as cache entries. The page
// prefix stays: the remaining keys still share it.
func (n node) deleteAt(pos int) {
	k := n.nKeys()
	// Remove from directory.
	copy(n.data[nodeHeaderSize+pos*dirEntrySize:nodeHeaderSize+(k-1)*dirEntrySize],
		n.data[nodeHeaderSize+(pos+1)*dirEntrySize:nodeHeaderSize+k*dirEntrySize])
	n.setNKeys(k - 1)
	newDirEnd := nodeHeaderSize + (k-1)*dirEntrySize
	// Zero the vacated directory slot.
	for i := newDirEnd; i < n.dirEnd(); i++ {
		n.data[i] = 0
	}
	n.setDirEnd(newDirEnd)
	n.compactCells()
}

// compactScratch recycles the staging buffer reencode copies live cells
// through. A page's cells fit in one page-sized buffer, so after warmup
// every delete and prefix shrink re-encodes without allocating.
var compactScratch = sync.Pool{New: func() any { return new([]byte) }}

// compactCells rewrites the key-cell region without holes, preserving
// directory order and the page prefix, and zeroes everything between
// dirEnd and the new keyStart (the enlarged cache region starts clean).
func (n node) compactCells() {
	n.reencode(n.prefixLen())
	for i := n.dirEnd(); i < n.keyStart(); i++ {
		n.data[i] = 0
	}
}

// reencode rewrites the prefix and key-cell region without holes under
// a page prefix of plen ≤ prefixLen bytes, preserving directory order:
// each cell's suffix gains the prefix bytes past plen. Cells are staged
// through a pooled scratch buffer at their final relative positions,
// then copied back in one pass. The bytes the region grows into are
// free space, which inserts may overwrite.
func (n node) reencode(plen int) {
	k := n.nKeys()
	pf := n.pageEnd()
	old := n.prefix()
	grow := len(old) - plen
	total := plen
	for i := 0; i < k; i++ {
		total += cellSize(len(n.storedSuffix(i)) + grow)
	}
	bufp := compactScratch.Get().(*[]byte)
	buf := *bufp
	if cap(buf) < total {
		buf = make([]byte, total)
	} else {
		buf = buf[:total]
	}
	newStart := pf - total
	top := total - plen
	copy(buf[top:], old[:plen])
	for i := k - 1; i >= 0; i-- {
		s := n.storedSuffix(i)
		slen := grow + len(s)
		top -= cellSize(slen)
		binary.LittleEndian.PutUint16(buf[top:], uint16(slen))
		copy(buf[top+cellHeaderSize:], old[plen:])
		copy(buf[top+cellHeaderSize+grow:], s)
		binary.LittleEndian.PutUint64(buf[top+cellHeaderSize+slen:], n.value(i))
		n.setDirEntry(i, newStart+top)
	}
	copy(n.data[newStart:pf], buf)
	*bufp = buf
	compactScratch.Put(bufp)
	n.setPrefixLen(plen)
	n.setKeyStart(newStart)
	n.bumpVersion()
}

// clearCells empties the node's directory and cells, zeroes everything
// between the header and the footer, and makes prefix the page prefix;
// the other header fields stay. Every key inserted afterwards must
// start with prefix or shrink it.
func (n node) clearCells(prefix []byte) {
	pf := n.pageEnd()
	for i := nodeHeaderSize; i < pf; i++ {
		n.data[i] = 0
	}
	copy(n.data[pf-len(prefix):pf], prefix)
	n.setPrefixLen(len(prefix))
	n.setNKeys(0)
	n.setDirEnd(nodeHeaderSize)
	n.setKeyStart(pf - len(prefix))
	n.bumpVersion()
}

// fillFrom empties the node (clearCells) and appends the staged entries
// [lo, hi) of b under their shared prefix.
func (n node) fillFrom(b *EntryBlock, lo, hi int) error {
	var prefix []byte
	if lo < hi {
		prefix = b.Key(lo)[:sharedPrefix(b.Key(lo), b.Key(hi-1))]
	}
	n.clearCells(prefix)
	for i := lo; i < hi; i++ {
		if err := n.insertAt(n.nKeys(), b.Key(i), b.Value(i)); err != nil {
			return err
		}
	}
	return nil
}

// usableBytes returns the page capacity available for directory+cells.
func (n node) usableBytes() int {
	return len(n.data) - nodeHeaderSize - nodeFooterSize
}

// usedBytes returns directory, live cell and page prefix bytes.
func (n node) usedBytes() int {
	used := n.nKeys()*dirEntrySize + n.prefixLen()
	for i := 0; i < n.nKeys(); i++ {
		used += cellSize(len(n.storedSuffix(i)))
	}
	return used
}

// storedKeyBytes returns the key bytes the page stores: every suffix
// plus the prefix once.
func (n node) storedKeyBytes() int {
	b := n.prefixLen()
	for i := 0; i < n.nKeys(); i++ {
		b += len(n.storedSuffix(i))
	}
	return b
}

// fill returns the node's fill factor: used / usable.
func (n node) fill() float64 {
	return float64(n.usedBytes()) / float64(n.usableBytes())
}

// runBytes returns the bytes keys first..last (sorted; count of them,
// keyBytes their total length) take on a page of their own: a cell
// and directory entry each, with their shared prefix stored once.
func runBytes(count, keyBytes int, first, last []byte) int {
	if count == 0 {
		return 0
	}
	plen := sharedPrefix(first, last)
	return keyBytes + count*(cellSize(0)+dirEntrySize) - (count-1)*plen
}
