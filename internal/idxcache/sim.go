package idxcache

import (
	"fmt"
	"math/rand"
)

// Sim is the policy-level cache simulator behind Figure 2(a). It
// abstracts away pages: the cache is a linear array of slots where
// index 0 is the most stable position (the paper's S) and the tail is
// the periphery that index growth overwrites first. The placement and
// promotion rules are identical to the page-backed Cache:
//
//   - miss-insert goes to a random free slot, or evicts a random entry
//     in the last (most peripheral) bucket when full;
//   - a hit swaps the entry with a random slot in the adjacent bucket
//     closer to position 0.
//
// Shrink(k) truncates the k most peripheral slots, modelling key
// inserts stealing cache space at a constant rate (the paper's Shrink
// curve overwrites half the cache over the run).
type Sim struct {
	slots   []uint64       // item id + 1; 0 = empty
	at      map[uint64]int // item id + 1 → its slot
	empty   int            // empty slots
	bucketN int
	rng     *rand.Rand

	lookups int64
	hits    int64

	// NoPromote disables the swap-toward-center rule (ablation A1:
	// random placement without promotion).
	NoPromote bool
}

// NewSim creates a simulator with the given capacity and bucket size.
func NewSim(rng *rand.Rand, capacity, bucketN int) (*Sim, error) {
	if capacity < 0 {
		return nil, fmt.Errorf("idxcache: sim capacity must be non-negative, got %d", capacity)
	}
	if bucketN < 1 {
		return nil, fmt.Errorf("idxcache: sim bucket size must be positive, got %d", bucketN)
	}
	return &Sim{
		slots:   make([]uint64, capacity),
		at:      make(map[uint64]int, capacity),
		empty:   capacity,
		bucketN: bucketN,
		rng:     rng,
	}, nil
}

// Capacity returns the current number of slots.
func (s *Sim) Capacity() int { return len(s.slots) }

// Lookup simulates one access to item (≥ 0): a hit promotes, a miss
// inserts. It reports whether the access hit.
func (s *Sim) Lookup(item int) bool {
	s.lookups++
	id := uint64(item) + 1
	i, ok := s.at[id]
	if !ok {
		s.insert(id)
		return false
	}
	s.hits++
	if b := i / s.bucketN; b > 0 && !s.NoPromote {
		j := (b-1)*s.bucketN + s.rng.Intn(s.bucketN)
		s.put(i, s.slots[j])
		s.put(j, id)
	}
	return true
}

// put stores id (0 = empty) in slot i and indexes it there.
func (s *Sim) put(i int, id uint64) {
	s.slots[i] = id
	if id != 0 {
		s.at[id] = i
	}
}

func (s *Sim) insert(id uint64) {
	if len(s.slots) == 0 {
		return
	}
	if s.empty > 0 {
		// The r-th empty slot in slot order, as a free list would hold it.
		r := s.rng.Intn(s.empty)
		for i, v := range s.slots {
			if v != 0 {
				continue
			}
			if r == 0 {
				s.put(i, id)
				s.empty--
				return
			}
			r--
		}
	}
	lastBucketStart := (len(s.slots) - 1) / s.bucketN * s.bucketN
	i := lastBucketStart + s.rng.Intn(len(s.slots)-lastBucketStart)
	delete(s.at, s.slots[i])
	s.put(i, id)
}

// Shrink removes the k most peripheral slots, discarding their
// contents — the effect of index key inserts overwriting the cache
// region's edge.
func (s *Sim) Shrink(k int) {
	if k <= 0 {
		return
	}
	if k > len(s.slots) {
		k = len(s.slots)
	}
	for _, v := range s.slots[len(s.slots)-k:] {
		if v == 0 {
			s.empty--
		} else {
			delete(s.at, v)
		}
	}
	s.slots = s.slots[:len(s.slots)-k]
}

// HitRate returns hits/lookups so far.
func (s *Sim) HitRate() float64 {
	if s.lookups == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.lookups)
}

// ResetStats zeroes the hit/lookup counters, keeping contents.
func (s *Sim) ResetStats() {
	s.lookups, s.hits = 0, 0
}
