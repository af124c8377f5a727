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
//   - Slots are grouped into buckets of N; a newly inserted item lands
//     in a random free slot (evicting a random peripheral item when
//     full), and a lookup hit swaps the item with a random entry in the
//     adjacent bucket closer to S.
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

// slotRank enumerates the cache slots of a free region [lo, hi) with
// entry size e, ordered by distance from the stable point s (closest
// first). The returned offsets are absolute page offsets, each a
// multiple of e, with off ≥ lo and off+e ≤ hi.
//
// The ordering is what gives the cache its "hot in the middle" shape:
// rank 0 is the last slot index growth will overwrite.
func slotRank(lo, hi, e, s int, out []int) []int {
	out = out[:0]
	if e <= 0 || hi-lo < e {
		return out
	}
	first := (lo + e - 1) / e * e // first aligned offset ≥ lo
	if first+e > hi {
		return out
	}
	last := (hi - e) / e * e // last aligned offset with room for a slot
	n := (last-first)/e + 1

	// Index of the slot whose start is nearest S.
	i0 := (s - first + e/2) / e
	if i0 < 0 {
		i0 = 0
	}
	if i0 >= n {
		i0 = n - 1
	}
	dist := func(i int) int {
		d := first + i*e - s
		if d < 0 {
			return -d
		}
		return d
	}
	l, r := i0, i0+1
	for l >= 0 || r < n {
		switch {
		case l < 0:
			out = append(out, first+r*e)
			r++
		case r >= n:
			out = append(out, first+l*e)
			l--
		case dist(l) <= dist(r):
			out = append(out, first+l*e)
			l--
		default:
			out = append(out, first+r*e)
			r++
		}
	}
	return out
}

// slotRankTo is slotRank stopping as soon as the slot at absolute
// offset target has been emitted: it returns the rank prefix and
// target's rank index, or -1 when target is not an aligned slot of the
// region. The prefix is identical to slotRank's first rank+1 entries,
// so promotion — which only ever swaps toward better ranks — never
// needs the rest.
func slotRankTo(lo, hi, e, s, target int, out []int) ([]int, int) {
	out = out[:0]
	if e <= 0 || hi-lo < e {
		return out, -1
	}
	first := (lo + e - 1) / e * e
	if first+e > hi {
		return out, -1
	}
	last := (hi - e) / e * e
	n := (last-first)/e + 1

	i0 := (s - first + e/2) / e
	if i0 < 0 {
		i0 = 0
	}
	if i0 >= n {
		i0 = n - 1
	}
	dist := func(i int) int {
		d := first + i*e - s
		if d < 0 {
			return -d
		}
		return d
	}
	l, r := i0, i0+1
	for l >= 0 || r < n {
		var off int
		switch {
		case l < 0:
			off = first + r*e
			r++
		case r >= n:
			off = first + l*e
			l--
		case dist(l) <= dist(r):
			off = first + l*e
			l--
		default:
			off = first + r*e
			r++
		}
		out = append(out, off)
		if off == target {
			return out, len(out) - 1
		}
	}
	return out, -1
}

// numSlots returns how many aligned slots fit in [lo, hi).
func numSlots(lo, hi, e int) int {
	if e <= 0 || hi-lo < e {
		return 0
	}
	first := (lo + e - 1) / e * e
	if first+e > hi {
		return 0
	}
	last := (hi - e) / e * e
	return (last-first)/e + 1
}
