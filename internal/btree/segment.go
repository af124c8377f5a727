package btree

import (
	"bytes"
	"sort"

	"repro/internal/storage"
)

// Segment is one piece of a key range planned for parallel scanning:
// Lo ≤ key < Hi, with nil meaning the range's own (possibly unbounded)
// edge. Segments produced by PlanSegments are disjoint, sorted, and
// cover the planned range exactly; adjacent segments share boundary
// slices, so callers must treat Lo/Hi as read-only.
type Segment struct {
	Lo, Hi []byte
}

// maxPlanSegments bounds a plan. Past a few hundred segments the
// per-segment descent cost dominates whatever balance finer splitting
// buys.
const maxPlanSegments = 1024

// PlanSegments splits [start, end) into up to target segments at
// internal-node separator keys, so each segment covers roughly one
// subtree at the shallowest level with enough fan-out. The plan is
// advisory: boundaries are legal keys of the moment the planner read
// them, and concurrent splits only make the balance approximate —
// cursors opened over the segments re-validate against per-leaf
// versions exactly like any other cursor, so correctness never depends
// on the plan staying fresh.
//
// The walk latches one node at a time (shared), top level first,
// accumulating each level's in-range separators until target segments
// are reachable or the leaf level is hit. A tree of height 1, or a
// target ≤ 1, yields the single segment [start, end).
func (t *Tree) PlanSegments(start, end []byte, target int) ([]Segment, error) {
	single := []Segment{{Lo: copyBytes(start), Hi: copyBytes(end)}}
	if target <= 1 {
		return single, nil
	}
	if target > maxPlanSegments {
		target = maxPlanSegments
	}
	root, height := t.root, t.Height()
	if height <= 1 {
		return single, nil
	}
	var seps [][]byte
	frontier := []storage.PageID{root}
	for level := 0; level < height && len(frontier) > 0 && len(seps)+1 < target; level++ {
		var next []storage.PageID
		hitLeaves := false
		for _, id := range frontier {
			fr, err := t.pool.Fetch(id)
			if err != nil {
				return nil, err
			}
			fr.Latch.RLock()
			n := asNode(fr.Data())
			if n.isLeaf() {
				fr.Latch.RUnlock()
				t.pool.Unpin(fr, false)
				hitLeaves = true
				continue
			}
			nk := n.nKeys()
			// Child ci covers [key(ci-1), key(ci)) within this subtree
			// (unbounded at the node's edges); keep the children that
			// intersect [start, end) and the separators strictly inside it.
			for ci := 0; ci <= nk; ci++ {
				if ci < nk && start != nil && n.cmpKey(ci, start) <= 0 {
					continue // child entirely below the range
				}
				if ci > 0 && end != nil && n.cmpKey(ci-1, end) >= 0 {
					break // this and all further children are past the range
				}
				if ci == 0 {
					next = append(next, storage.PageID(n.leftmostChild()))
				} else {
					next = append(next, storage.PageID(n.value(ci-1)))
				}
			}
			for i := 0; i < nk; i++ {
				if start != nil && n.cmpKey(i, start) <= 0 {
					continue
				}
				if end != nil && n.cmpKey(i, end) >= 0 {
					break
				}
				seps = append(seps, n.appendKey(nil, i))
			}
			fr.Latch.RUnlock()
			t.pool.Unpin(fr, false)
		}
		if hitLeaves {
			break
		}
		frontier = next
	}
	if len(seps) == 0 {
		return single, nil
	}
	// Separators from different levels interleave; order and de-dup them
	// (a separator can echo a descendant's boundary after splits).
	sort.Slice(seps, func(i, j int) bool { return bytes.Compare(seps[i], seps[j]) < 0 })
	uniq := seps[:1]
	for _, s := range seps[1:] {
		if !bytes.Equal(uniq[len(uniq)-1], s) {
			uniq = append(uniq, s)
		}
	}
	seps = uniq
	// Downsample to at most target-1 boundaries, evenly spaced over the
	// cells they delimit, so segment sizes stay within one subtree of
	// each other.
	if len(seps) > target-1 {
		m := len(seps) + 1
		picked := make([][]byte, 0, target-1)
		for i := 1; i < target; i++ {
			picked = append(picked, seps[i*m/target-1])
		}
		seps = picked
	}
	segs := make([]Segment, 0, len(seps)+1)
	lo := copyBytes(start)
	for _, s := range seps {
		segs = append(segs, Segment{Lo: lo, Hi: s})
		lo = s
	}
	return append(segs, Segment{Lo: lo, Hi: copyBytes(end)}), nil
}
