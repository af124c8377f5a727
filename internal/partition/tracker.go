// Package partition implements Section 3.1: access-frequency-based
// horizontal partitioning. An AccessTracker observes the workload and
// identifies hot tuples; Cluster relocates them (delete + append) so
// they share pages; HotCold splits them into a separate partition whose
// index is small enough to stay resident — the configuration that gives
// the paper its 8.4× win.
package partition

import (
	"sort"
	"sync"

	"repro/internal/storage"
)

// AccessTracker counts accesses per RID. The paper notes hot tuples are
// unrelated to any field value ("hash and range partitioning are not
// possible"), so frequency observation — or application knowledge like
// Wikipedia's page_latest pointers — is the only way to find them.
type AccessTracker struct {
	mu     sync.Mutex
	counts map[storage.RID]int64
	total  int64
}

// NewAccessTracker returns an empty tracker.
func NewAccessTracker() *AccessTracker {
	return &AccessTracker{counts: make(map[storage.RID]int64)}
}

// Record notes one access to rid.
func (a *AccessTracker) Record(rid storage.RID) {
	a.mu.Lock()
	a.counts[rid]++
	a.total++
	a.mu.Unlock()
}

// Count returns the access count of one RID.
func (a *AccessTracker) Count(rid storage.RID) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.counts[rid]
}

// Hottest returns up to n RIDs in descending access count.
func (a *AccessTracker) Hottest(n int) []storage.RID {
	a.mu.Lock()
	defer a.mu.Unlock()
	type entry struct {
		rid storage.RID
		n   int64
	}
	entries := make([]entry, 0, len(a.counts))
	for rid, c := range a.counts {
		entries = append(entries, entry{rid, c})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].n != entries[j].n {
			return entries[i].n > entries[j].n
		}
		// Stable tie-break for determinism.
		if entries[i].rid.Page != entries[j].rid.Page {
			return entries[i].rid.Page < entries[j].rid.Page
		}
		return entries[i].rid.Slot < entries[j].rid.Slot
	})
	if n > len(entries) {
		n = len(entries)
	}
	out := make([]storage.RID, n)
	for i := 0; i < n; i++ {
		out[i] = entries[i].rid
	}
	return out
}

// HotSetByCoverage returns the smallest prefix of the hottest RIDs that
// covers the given fraction of all recorded accesses — e.g. 0.999
// reproduces the paper's "99.9% of requests hit 5% of tuples" cut.
func (a *AccessTracker) HotSetByCoverage(frac float64) []storage.RID {
	a.mu.Lock()
	total := a.total
	a.mu.Unlock()
	if total == 0 {
		return nil
	}
	all := a.Hottest(len(a.counts))
	var cum int64
	for i, rid := range all {
		cum += a.Count(rid)
		if float64(cum) >= frac*float64(total) {
			return all[:i+1]
		}
	}
	return all
}
