package btree

import (
	"bytes"
	"fmt"
	"sync"

	"repro/internal/storage"
)

// RunOp selects what a RunEntry does to its key.
type RunOp uint8

const (
	// RunUpsert stores the entry's value under its key, replacing any
	// existing value (Tree.Insert is a run of one).
	RunUpsert RunOp = iota
	// RunDelete removes the key if present (Tree.Delete is a run of
	// one; deleting an absent key is a no-op, not an error).
	RunDelete
	// RunInsertIfAbsent stores the entry's value only when the key is
	// not already present; an existing entry is left untouched.
	// Callers detect the collision via Existed — with the survivor's
	// value intact, which is what unique-index maintenance needs.
	RunInsertIfAbsent
	// RunDeleteIf removes the key only while it holds the entry's Value,
	// decided under the leaf latch; a key holding another value stays.
	// Existed and Prev report what the key held, so the entry removed
	// something exactly when Existed and Prev == Value.
	RunDeleteIf
)

// RunEntry is one operation of a sorted run handed to ApplyRun. Key is
// read, never retained; Existed and Prev are outputs: ApplyRun sets them
// to whether the key was already present when the entry was applied and
// the value it held then, which is how callers detect duplicate-key
// collisions — and learn what an upsert overwrote, to verify or undo it
// — without a second descent per key.
type RunEntry struct {
	Key     []byte
	Value   uint64
	Op      RunOp
	Existed bool
	Prev    uint64
}

// RunStats reports what one ApplyRun did. Descents versus the number of
// entries is the amortization the run buys: one crabbed descent and one
// exclusive leaf latch cover every consecutive entry that lands on the
// same leaf, instead of one per key.
type RunStats struct {
	Inserted int // upserts that added a new key
	Updated  int // upserts that overwrote an existing key
	Deleted  int // deletes that removed a present key
	Descents int // latched descents paid for the whole run
	Splits   int // entries that fell back to the pessimistic split path
	// Done counts the leading entries whose outcome (and outputs) is
	// final: len(entries) on success, the failing entry's index on error.
	Done int
}

// runScratch recycles the leaf-boundary copy ApplyRun keeps across leaf
// runs (the boundary must be copied out of the page: deletes compact
// the cell region under the run's own latch, moving the bytes a
// directly aliased boundary would point at).
var runScratch = sync.Pool{New: func() any { return new([]byte) }}

// ApplyRun applies a batch of upserts and deletes, sorted ascending by
// key, in leaf-grouped runs: one crabbed descent reaches the leaf
// covering the next unapplied entry, and every following entry that
// provably lands on the same leaf is applied under that single
// exclusive leaf latch. An upsert that does not fit falls back to the
// pessimistic split path for that one key, then the run resumes with a
// fresh descent. Duplicate keys within one run are legal and apply in
// order (later entries see the earlier ones' effects).
//
// Entries must be sorted (bytes.Compare on Key, ties allowed) and
// non-empty keys within the tree's length bound; violations fail the
// whole run before anything is applied. Once application starts, an
// I/O error aborts mid-run with the returned stats counting what
// landed — the caller owns partial-application semantics (core.Table
// documents its batch contract on top of this).
//
// Concurrency: each leaf run holds exactly one exclusive leaf latch,
// acquired at the end of a read-coupled descent, and sorted keys mean
// consecutive runs visit leaves strictly left to right — the same latch
// order every other writer uses.
func (t *Tree) ApplyRun(entries []RunEntry) (RunStats, error) {
	var st RunStats
	if len(entries) == 0 {
		return st, nil
	}
	maxLen := t.maxKeyLen()
	for i := range entries {
		e := &entries[i]
		if len(e.Key) == 0 {
			return st, fmt.Errorf("btree: empty key at run entry %d", i)
		}
		if len(e.Key) > maxLen {
			return st, fmt.Errorf("btree: run entry %d: key of %d bytes exceeds max %d", i, len(e.Key), maxLen)
		}
		if i > 0 && bytes.Compare(entries[i-1].Key, e.Key) > 0 {
			return st, fmt.Errorf("btree: run entries not sorted at %d", i)
		}
	}

	boundp := runScratch.Get().(*[]byte)
	bound := *boundp
	defer func() {
		*boundp = bound
		runScratch.Put(boundp)
	}()

	i := 0
	for i < len(entries) {
		fr, err := t.leafExclusive(entries[i].Key)
		if err != nil {
			st.Done = i
			return st, err
		}
		st.Descents++
		n := asNode(fr.Data())
		// Coverage bound for this leaf run: entries ≤ the leaf's current
		// last key certainly belong here; the rightmost leaf covers
		// everything. Keys past the bound may still belong to this leaf
		// (its separator range can extend further right), but proving
		// that needs the parent — re-descending is correct and costs one
		// descent only when the run actually crosses a leaf.
		rightmost := n.rightSibling() == uint64(storage.InvalidPageID)
		bound = bound[:0]
		if k := n.nKeys(); k > 0 {
			bound = n.appendKey(bound, k-1)
		}
		dirty := false
		split := false
		j := i
		for j < len(entries) {
			e := &entries[j]
			if j > i && !rightmost && (len(bound) == 0 || bytes.Compare(e.Key, bound) > 0) {
				break
			}
			pos, found := n.search(e.Key)
			e.Existed = found
			if found {
				e.Prev = n.value(pos)
			}
			switch e.Op {
			case RunDelete, RunDeleteIf:
				if found && (e.Op == RunDelete || e.Prev == e.Value) {
					n.deleteAt(pos)
					dirty = true
					st.Deleted++
					t.numKeys.Add(-1)
				}
			default:
				if found {
					if e.Op != RunInsertIfAbsent {
						if n.setValue(pos, e.Value) == nil {
							dirty = true
							st.Updated++
						} else {
							split = true // a wider value the leaf has no room to widen to
						}
					}
				} else if ierr := n.insertAt(pos, e.Key, e.Value); ierr == nil {
					dirty = true
					st.Inserted++
					t.numKeys.Add(1)
					if bytes.Compare(e.Key, bound) > 0 {
						// The entry extended the leaf's key range (only
						// reachable for the run's first entry or on the
						// rightmost leaf); later entries up to it are
						// covered too.
						bound = append(bound[:0], e.Key...)
					}
				} else {
					split = true
				}
			}
			if split {
				break
			}
			j++
		}
		fr.Latch.Unlock()
		t.pool.Unpin(fr, dirty)
		if split {
			// The leaf cannot absorb entries[j]: give up the run's latch
			// and push this one key through the pessimistic split path.
			// The run resumes after it. A new key's push is if-absent
			// whatever the entry's op: when a concurrent writer slipped
			// the key in since the latch dropped, the run resumes AT this
			// entry instead, so the next leaf run applies it under the
			// latch and reports what it found there. A present key's
			// wider value is an upsert, and the push reports what it
			// replaced.
			e := &entries[j]
			t.latchRetries.Add(1)
			st.Splits++
			ins, prev, perr := t.insertPessimistic(e.Key, e.Value, !e.Existed)
			if perr != nil {
				st.Done = j
				return st, perr
			}
			switch {
			case ins:
				e.Existed, e.Prev = false, 0
				st.Inserted++
				j++
			case e.Existed:
				e.Prev = prev
				st.Updated++
				j++
			}
		}
		i = j
	}
	st.Done = len(entries)
	return st, nil
}
