package idxcache

import (
	"sync"
	"sync/atomic"
)

// PredLog is the in-memory invalidation log of Section 2.1.2. When a
// tuple is updated, a predicate that uniquely identifies it — here, its
// exact index key — is appended. When an index page is read during
// normal query execution, pending predicates falling inside the page's
// key range force the page's cache to be zeroed. If the log grows past
// its threshold, the owner escalates: bump CSNidx (invalidating every
// page cache at once) and clear the log.
type PredLog struct {
	mu sync.Mutex
	// The pending keys sit back to back in slab; key i ends at ends[i].
	// Clear drops both, keeping their capacity.
	slab    []byte
	ends    []int
	baseSeq uint32 // sequence number of key 0 minus one
	// headSeq is the sequence number of the latest appended predicate:
	// written under mu, read without it.
	headSeq atomic.Uint32
	limit   int
}

// NewPredLog creates a log that reports escalation beyond limit pending
// predicates. limit ≤ 0 means "escalate immediately on any append"
// (i.e. fine-grained invalidation disabled).
func NewPredLog(limit int) *PredLog {
	return &PredLog{limit: limit}
}

// Append records the predicate and reports whether the log has
// exceeded its threshold and should be escalated to a full CSN bump.
func (p *PredLog) Append(key []byte) (escalate bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.slab = append(p.slab, key...)
	p.ends = append(p.ends, len(p.slab))
	p.headSeq.Add(1)
	return len(p.ends) > p.limit
}

// HeadSeq returns the sequence number of the newest predicate. A page
// whose AppliedSeq equals HeadSeq has nothing pending.
func (p *PredLog) HeadSeq() uint32 { return p.headSeq.Load() }

// Pending returns the number of buffered predicates.
func (p *PredLog) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ends)
}

// KeySpan is a page's key range: Covers reports whether key lies within
// it, both ends inclusive. *btree.Leaf is one.
type KeySpan interface {
	Covers(key []byte) bool
}

// MatchRange reports whether any predicate with sequence number greater
// than afterSeq falls within page. Pages call this with their key range
// to decide whether their cache must be zeroed.
func (p *PredLog) MatchRange(afterSeq uint32, page KeySpan) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	// Key i has sequence baseSeq+1+i.
	start := 0
	if afterSeq > p.baseSeq {
		start = int(afterSeq - p.baseSeq)
	}
	for i := start; i < len(p.ends); i++ {
		lo := 0
		if i > 0 {
			lo = p.ends[i-1]
		}
		if page.Covers(p.slab[lo:p.ends[i]]) {
			return true
		}
	}
	return false
}

// Clear empties the log (after a CSN escalation). Sequence numbers keep
// increasing across Clear so stale AppliedSeq values stay comparable.
func (p *PredLog) Clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.baseSeq = p.headSeq.Load()
	p.slab, p.ends = p.slab[:0], p.ends[:0]
}
