package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	for range 5 {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Errorf("Value = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Error("Reset failed")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 10000 {
		t.Errorf("Value = %d, want 10000", c.Value())
	}
}

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
