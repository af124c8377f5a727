package partition

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/storage"
)

// Cluster relocates the given hot tuples to the end of their table
// (Section 3.1's clustering algorithm): Table.Relocate appends a new
// copy of each, repoints its index entries, then frees the old copy.
// On an append-only heap the moved tuples end up packed together in
// fresh tail pages, converting "one hot tuple per page" into pages that
// are entirely hot. Returns the mapping from old to new RIDs, which is
// what a caller holding old RIDs (foreign keys) redirects through.
func Cluster(t *core.Table, hot []storage.RID) (map[storage.RID]storage.RID, error) {
	moved := make(map[storage.RID]storage.RID, len(hot))
	for _, rid := range hot {
		newRID, err := t.Relocate(rid)
		if err != nil {
			return moved, fmt.Errorf("partition: clustering %v: %w", rid, err)
		}
		moved[rid] = newRID
	}
	return moved, nil
}

// ClusterFraction clusters only the first frac of the hot list (the
// paper's Figure 3 sweeps 0%, 54%, 100%).
func ClusterFraction(t *core.Table, hot []storage.RID, frac float64) (map[storage.RID]storage.RID, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("partition: fraction %g out of [0,1]", frac)
	}
	n := int(float64(len(hot)) * frac)
	return Cluster(t, hot[:n])
}
