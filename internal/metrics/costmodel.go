// Package metrics provides the latency cost model shared by the
// simulation-backed experiments.
//
// The paper's Figure 2(b) experiment is itself a simulation: the index
// and buffer pool are "large in-memory arrays" and a buffer-pool miss
// reads a page from an on-disk file. CostModel captures that three-tier
// latency hierarchy (index-cache probe, buffer-pool page access, disk
// read) so the experiment is deterministic and machine-independent.
package metrics

import "time"

// CostModel is the latency model used by the simulation-backed
// experiments (Figure 2(b) and the fig3 partition sweep). It assigns a
// fixed cost to each tier of the storage hierarchy, mirroring the
// paper's setup where the index lives in memory, an index-cache miss
// costs a random buffer-pool page access, and a buffer-pool miss costs
// a disk page read.
type CostModel struct {
	// IndexProbe is the cost of the in-memory B+Tree descent plus the
	// index-cache scan. Charged on every lookup.
	IndexProbe time.Duration
	// CacheProbe is the incremental cost of scanning the cache slots in
	// a leaf page (the paper measures ~0.3µs of overhead).
	CacheProbe time.Duration
	// BufferPoolAccess is the cost of fetching a heap page already
	// resident in the buffer pool (a RAM access pattern over a large
	// array: TLB/cache misses dominate).
	BufferPoolAccess time.Duration
	// DiskRead is the cost of reading one page from disk on a buffer
	// pool miss (seek + rotational latency for the 2011-era disks the
	// paper assumes).
	DiskRead time.Duration
}

// DefaultCostModel mirrors the hardware the paper assumes: ~0.3µs index
// probe, ~0.3µs cache scan overhead, ~1µs for a random page touch in a
// multi-GB buffer pool, and ~5ms for a random disk I/O.
func DefaultCostModel() CostModel {
	return CostModel{
		IndexProbe:       300 * time.Nanosecond,
		CacheProbe:       300 * time.Nanosecond,
		BufferPoolAccess: 1 * time.Microsecond,
		DiskRead:         5 * time.Millisecond,
	}
}

// Lookup returns the simulated cost of one index lookup given whether
// the index cache answered it, and failing that, whether the buffer
// pool had the heap page. The withCache flag charges the cache scan
// overhead (a lookup on an engine with caching disabled skips it).
func (m CostModel) Lookup(withCache, cacheHit, bufferPoolHit bool) time.Duration {
	cost := m.IndexProbe
	if withCache {
		cost += m.CacheProbe
	}
	if withCache && cacheHit {
		return cost
	}
	cost += m.BufferPoolAccess
	if bufferPoolHit {
		return cost
	}
	return cost + m.DiskRead
}

// LookupSeconds is Lookup converted to float64 seconds, convenient for
// averaging across trials.
func (m CostModel) LookupSeconds(withCache, cacheHit, bufferPoolHit bool) float64 {
	return m.Lookup(withCache, cacheHit, bufferPoolHit).Seconds()
}
