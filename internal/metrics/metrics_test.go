package metrics

import (
	"testing"
	"time"
)

func TestCostModelTiers(t *testing.T) {
	m := DefaultCostModel()
	hit := m.Lookup(true, true, true)
	bpHit := m.Lookup(true, false, true)
	miss := m.Lookup(true, false, false)
	if !(hit < bpHit && bpHit < miss) {
		t.Errorf("tier ordering wrong: %v %v %v", hit, bpHit, miss)
	}
	// A cache hit never touches the buffer pool or disk.
	if hit != m.IndexProbe+m.CacheProbe {
		t.Errorf("cache hit cost = %v", hit)
	}
	// Disabled cache skips the probe overhead.
	noCache := m.Lookup(false, false, true)
	if noCache != m.IndexProbe+m.BufferPoolAccess {
		t.Errorf("no-cache cost = %v", noCache)
	}
	// Disk dominates everything else by orders of magnitude.
	if miss < 100*bpHit {
		t.Errorf("disk miss %v not >> buffer pool hit %v", miss, bpHit)
	}
	if m.LookupSeconds(true, true, true) != hit.Seconds() {
		t.Error("LookupSeconds disagrees with Lookup")
	}
	_ = time.Nanosecond
}
