// Package idxcache implements the paper's Section 2.1 index cache: the
// free space of B+Tree leaf pages is recycled as a volatile cache of
// hot tuples' field values.
//
// Key properties, all from the paper:
//
//   - Slots are aligned to absolute page offsets that are multiples of
//     the entry size, so slot boundaries are stable as the free region
//     grows and shrinks around them.
//   - Index key inserts overwrite the periphery of the region freely;
//     the cache keeps hot items near the stable point S where they are
//     overwritten last.
//   - Slots are ranked by distance from S, the lower offset first on a
//     tie, and grouped into buckets of N consecutive ranks; a newly
//     inserted item lands in a random free slot (evicting a random item
//     of the last bucket when full), and a lookup hit swaps the item
//     with a random entry in the adjacent bucket closer to S.
//   - A rank is a closed form of the slot index (slotOrder): with c the
//     slot nearest S, ranks alternate around c starting on S's side, and
//     continue on the longer side once the shorter one runs out. No
//     visit materialises the order.
//   - Cache writes never dirty the page: contents are volatile and
//     protected by the CSNp/CSNidx scheme plus a predicate log.
//
// Entry layout within a slot: the packed RID as a tag of the page's tag
// width (nonzero; zero marks an empty slot), little-endian, followed by
// the cached payload. A page's tag width is the bytes the widest RID
// among its entries needs when its cache is cut (§4.1 applied to §2.1's
// own items): every RID a lookup probes there is an entry of that leaf,
// so it fits the tag unless the leaf widened since, and one that does
// not fit is a miss, never a partial match.
package idxcache

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/btree"
)

// maxPayload bounds a payload so a slot format fits the header's 16
// bits (slotFormat).
const maxPayload = 1<<13 - 1 - 8

// slotFormat packs a page's slot geometry into the leaf header's
// cacheEntrySize field: the entry size (tag plus payload) above the
// tag width's three bits. Zero is a page whose cache was never cut.
func slotFormat(tag, payload int) int { return (tag+payload)<<3 | (tag - 1) }

// formatTag returns a slot format's tag width, formatEntry its entry
// size and formatPayload its payload width.
func formatTag(f int) int     { return f&7 + 1 }
func formatEntry(f int) int   { return f >> 3 }
func formatPayload(f int) int { return formatEntry(f) - formatTag(f) }

// ridWidth returns the bytes rid takes as a tag: 1 to 8.
func ridWidth(rid uint64) int { return max(1, (bits.Len64(rid)+7)/8) }

// fitsTag reports whether rid fits a tag of w bytes.
func fitsTag(rid uint64, w int) bool { return w == 8 || rid>>(8*w) == 0 }

// tagWidth returns the tag width a page's cache is cut at: the bytes the
// widest RID among its entries needs.
func tagWidth(l *btree.Leaf) int {
	var widest uint64
	for i := 0; i < l.NumKeys(); i++ {
		widest = max(widest, l.ValueAt(i))
	}
	return ridWidth(widest)
}

// loadTag reads the w-byte tag of the slot at off.
func loadTag(data []byte, off, w int) uint64 {
	if off+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[off:]) & (^uint64(0) >> (64 - 8*w))
	}
	var v uint64
	for i := w - 1; i >= 0; i-- {
		v = v<<8 | uint64(data[off+i])
	}
	return v
}

// storeTag writes rid as a w-byte tag at b.
func storeTag(b []byte, rid uint64, w int) {
	for i := 0; i < w; i++ {
		b[i] = byte(rid >> (8 * i))
	}
}

// slotOrder is one visit's view of a free region's cache slots in
// §2.1.1's order: by distance from the stable point S, the lower offset
// first on a tie. Rank 0 is the last slot index growth will overwrite,
// so hot entries climb toward it and eviction takes from the far end.
//
// The order is a closed form of the slot index. Slot i starts at
// first+i*e; c is the slot nearest S. Ranks alternate around c, starting
// on S's side of c's offset (below it when S lies on it): rank 2k-1 is
// k slots toward that side, rank 2k k slots away from it. Once the
// shorter side runs out, ranks continue on the longer one: rank r > 2m
// is r-m slots out, where m is the shorter side's slot count.
type slotOrder struct {
	first, e, n int // first aligned offset, entry size, slot count
	c           int // index of the slot nearest S: rank 0
	m           int // slots the shorter side of c has
	near        int // ±1: the side of c odd ranks take; even ones take the other
	long        int // ±1: the side ranks past 2m continue on
}

// slotsOf returns the slot order of the free region [lo, hi) with entry
// size e around the stable point s. Slots start at absolute page
// offsets that are multiples of e, so a slot keeps its offset as the
// region grows and shrinks around it. An entry size e <= 0 has no slots.
func slotsOf(lo, hi, e, s int) slotOrder {
	if e <= 0 {
		return slotOrder{}
	}
	first := (lo + e - 1) / e * e
	o := slotOrder{first: first, e: e, n: max(0, (hi-first)/e)}
	if o.n == 0 {
		return o
	}
	// The nearest slot, rounding a midpoint down to the lower offset.
	o.c = min(max(0, s-first+(e-1)/2)/e, o.n-1)
	below, above := o.c, o.n-1-o.c
	o.m = min(below, above)
	o.near, o.long = -1, -1
	if s > first+o.c*e {
		o.near = 1
	}
	if above > below {
		o.long = 1
	}
	return o
}

// offset returns the offset of the slot of rank r, 0 ≤ r < n.
func (o slotOrder) offset(r int) int {
	i := o.c
	switch {
	case r > 2*o.m:
		i += o.long * (r - o.m)
	case r%2 == 1:
		i += o.near * (r + 1) / 2
	default:
		i -= o.near * r / 2
	}
	return o.first + i*o.e
}

// rank returns the rank of the slot at offset off, or -1 when off is not
// a slot start of the region.
func (o slotOrder) rank(off int) int {
	d := off - o.first
	if o.n == 0 || d < 0 || d%o.e != 0 || d/o.e >= o.n {
		return -1
	}
	d = d/o.e - o.c
	k := max(d, -d)
	switch {
	case d == 0:
		return 0
	case k > o.m:
		return o.m + k
	case d*o.near > 0:
		return 2*k - 1
	default:
		return 2 * k
	}
}
