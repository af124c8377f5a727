package idxcache

import (
	"testing"
	"testing/quick"
)

// ranked lists the slot offsets of the region [lo, hi) with entry size e
// around the stable point s, rank 0 first.
func ranked(lo, hi, e, s int) []int {
	o := slotsOf(lo, hi, e, s)
	offs := make([]int, o.n)
	for r := range offs {
		offs[r] = o.offset(r)
	}
	return offs
}

func TestSlotRankBasics(t *testing.T) {
	// Region [100, 200), entry 25: aligned slots at 100, 125, 150, 175.
	ranks := ranked(100, 200, 25, 150)
	if len(ranks) != 4 {
		t.Fatalf("got %d slots, want 4", len(ranks))
	}
	if ranks[0] != 150 {
		t.Errorf("nearest slot to S=150 is %d, want 150", ranks[0])
	}
	// All offsets aligned and in bounds.
	seen := map[int]bool{}
	for _, off := range ranks {
		if off%25 != 0 {
			t.Errorf("offset %d not aligned", off)
		}
		if off < 100 || off+25 > 200 {
			t.Errorf("offset %d out of bounds", off)
		}
		if seen[off] {
			t.Errorf("offset %d duplicated", off)
		}
		seen[off] = true
	}
}

func TestSlotRankDistancesNonDecreasing(t *testing.T) {
	prev := -1
	for _, off := range ranked(40, 400, 25, 210) {
		d := max(off-210, 210-off)
		if prev >= 0 && d < prev {
			t.Fatalf("distance decreased: %d after %d", d, prev)
		}
		prev = d
	}
}

func TestSlotRankUnalignedBounds(t *testing.T) {
	// lo=101: the first aligned slot is 125; 125, 150 and 175 all fit.
	ranks := ranked(101, 200, 25, 0)
	for _, off := range ranks {
		if off < 101 {
			t.Errorf("slot %d starts before region", off)
		}
	}
	if len(ranks) != 3 {
		t.Errorf("got %d slots, want 3", len(ranks))
	}
}

func TestSlotRankDegenerate(t *testing.T) {
	if got := ranked(100, 110, 25, 0); len(got) != 0 {
		t.Errorf("region smaller than entry should have 0 slots, got %d", len(got))
	}
	if got := ranked(100, 100, 25, 0); len(got) != 0 {
		t.Errorf("empty region should have 0 slots, got %d", len(got))
	}
	if got := ranked(100, 200, 0, 0); len(got) != 0 {
		t.Errorf("zero entry size should have 0 slots, got %d", len(got))
	}
	if r := slotsOf(100, 200, 0, 0).rank(100); r != -1 {
		t.Errorf("zero entry size: rank(100) = %d, want -1", r)
	}
}

func TestPropertySlotRankCompleteAndStable(t *testing.T) {
	f := func(loRaw, sizeRaw, eRaw, sRaw uint16) bool {
		lo := int(loRaw%500) + 10
		hi := lo + int(sizeRaw%1000)
		e := int(eRaw%64) + 8
		s := int(sRaw % 1200)
		ranks := ranked(lo, hi, e, s)
		want := 0 // aligned slots, counted by brute force
		for off := 0; off+e <= hi; off += e {
			if off >= lo {
				want++
			}
		}
		if len(ranks) != want {
			return false
		}
		seen := map[int]bool{}
		for _, off := range ranks {
			if off%e != 0 || off < lo || off+e > hi || seen[off] {
				return false
			}
			seen[off] = true
		}
		// Stability: shrinking the region keeps surviving slot offsets
		// identical (alignment is absolute, not relative).
		if hi-e > lo {
			for _, off := range ranked(lo, hi-e, e, s) {
				if !seen[off] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestSlotOrderProperty sweeps every small region densely, the stable
// point below, inside and above it: offset and rank must be inverse
// bijections between ranks [0, n) and the region's aligned slots, the
// ranks must run in (|off − S|, off) order, and slots that survive a
// shrink from either end must keep their offsets.
func TestSlotOrderProperty(t *testing.T) {
	less := func(a, b, s int) bool {
		da, db := max(a-s, s-a), max(b-s, s-b)
		return da < db || da == db && a < b
	}
	for e := 1; e <= 12; e++ {
		for lo := 0; lo < 2*e; lo++ {
			for hi := lo; hi <= lo+8*e; hi++ {
				want := 0 // aligned slots, counted by brute force
				for off := 0; off+e <= hi; off += e {
					if off >= lo {
						want++
					}
				}
				shrunk := [2]slotOrder{slotsOf(lo, max(lo, hi-1), e, 0), slotsOf(min(lo+1, hi), hi, e, 0)}
				for s := lo - 2*e; s <= hi+2*e; s++ {
					o := slotsOf(lo, hi, e, s)
					if o.n != want {
						t.Fatalf("[%d,%d) e=%d: %d slots, want %d", lo, hi, e, o.n, want)
					}
					prev := 0
					for r := 0; r < o.n; r++ {
						off := o.offset(r)
						if off%e != 0 || off < lo || off+e > hi {
							t.Fatalf("[%d,%d) e=%d S=%d: rank %d at %d, not a slot", lo, hi, e, s, r, off)
						}
						if got := o.rank(off); got != r {
							t.Fatalf("[%d,%d) e=%d S=%d: rank(offset(%d)=%d) = %d", lo, hi, e, s, r, off, got)
						}
						if r > 0 && !less(prev, off, s) {
							t.Fatalf("[%d,%d) e=%d S=%d: rank %d at %d after rank %d at %d", lo, hi, e, s, r, off, r-1, prev)
						}
						prev = off
					}
					for off := lo - e; off <= hi+e; off++ {
						slot := off%e == 0 && off >= lo && off+e <= hi
						if r := o.rank(off); slot != (r >= 0) {
							t.Fatalf("[%d,%d) e=%d S=%d: rank(%d) = %d", lo, hi, e, s, off, r)
						}
					}
				}
				for _, sh := range shrunk {
					for r := 0; r < sh.n; r++ {
						if off := sh.offset(r); slotsOf(lo, hi, e, 0).rank(off) < 0 {
							t.Fatalf("[%d,%d) e=%d: slot %d of a shrunk region is not a slot of the region", lo, hi, e, off)
						}
					}
				}
			}
		}
	}
	// Degenerate regions hold no slot.
	for _, r := range [][2]int{{100, 110}, {100, 100}, {101, 125}} {
		if n := slotsOf(r[0], r[1], 25, 0).n; n != 0 {
			t.Errorf("[%d,%d) e=25: %d slots, want 0", r[0], r[1], n)
		}
	}
}
