package buffer

import (
	"testing"

	"repro/internal/storage"
)

func newTestPool(t *testing.T, capacity int) (*Pool, *storage.MemDisk) {
	t.Helper()
	disk, err := storage.NewMemDisk(256)
	if err != nil {
		t.Fatalf("NewMemDisk: %v", err)
	}
	p, err := NewPool(disk, capacity)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p, disk
}

func TestPoolFetchHitMiss(t *testing.T) {
	p, _ := newTestPool(t, 4)
	f, err := p.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	id := f.ID()
	p.Unpin(f, true)

	f2, err := p.Fetch(id)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	p.Unpin(f2, false)
	st := p.Stats()
	if st.Hits != 1 {
		t.Errorf("Hits = %d, want 1", st.Hits)
	}
}

func TestPoolEvictionWritesBackDirty(t *testing.T) {
	p, disk := newTestPool(t, 2)
	f, _ := p.NewPage()
	id := f.ID()
	copy(f.Data(), "dirty-data")
	p.Unpin(f, true)

	// Force eviction by cycling more pages than capacity.
	for i := 0; i < 4; i++ {
		g, err := p.NewPage()
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		p.Unpin(g, true)
	}
	if resident(p, id) {
		t.Fatal("page should have been evicted")
	}
	buf := make([]byte, 256)
	if err := disk.ReadPage(id, buf); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if string(buf[:10]) != "dirty-data" {
		t.Errorf("dirty page not written back: %q", buf[:10])
	}
}

// TestPoolVolatileWritesDropped verifies the property the index cache
// depends on: mutations without a dirty mark disappear at eviction.
func TestPoolVolatileWritesDropped(t *testing.T) {
	p, _ := newTestPool(t, 2)
	f, _ := p.NewPage()
	id := f.ID()
	copy(f.Data(), "base-data!")
	p.Unpin(f, true)
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}

	// Volatile (cache-style) mutation: no dirty flag.
	f2, _ := p.Fetch(id)
	copy(f2.Data(), "cacheWRITE")
	p.Unpin(f2, false)

	if err := p.EvictAll(); err != nil {
		t.Fatalf("EvictAll: %v", err)
	}
	st := p.Stats()
	f3, _ := p.Fetch(id)
	got := string(f3.Data()[:10])
	p.Unpin(f3, false)
	if got != "base-data!" {
		t.Errorf("volatile write survived eviction: %q", got)
	}
	if st.Writebacks != 1 {
		t.Errorf("writebacks = %d; volatile writes must not add I/O", st.Writebacks)
	}
}

func TestPoolPinnedPagesNotEvicted(t *testing.T) {
	p, _ := newTestPool(t, 2)
	f1, _ := p.NewPage() // stays pinned
	f2, _ := p.NewPage()
	p.Unpin(f2, true)
	// A third page must evict f2, not the pinned f1.
	f3, err := p.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	if !resident(p, f1.ID()) {
		t.Error("pinned page was evicted")
	}
	p.Unpin(f1, true)
	p.Unpin(f3, true)
}

func TestPoolAllPinnedFails(t *testing.T) {
	p, _ := newTestPool(t, 2)
	f1, _ := p.NewPage()
	f2, _ := p.NewPage()
	if _, err := p.NewPage(); err == nil {
		t.Error("NewPage with all frames pinned should fail")
	}
	p.Unpin(f1, false)
	p.Unpin(f2, false)
}

func TestPoolUnpinUnderflowPanics(t *testing.T) {
	p, _ := newTestPool(t, 2)
	f, _ := p.NewPage()
	p.Unpin(f, false)
	defer func() {
		if recover() == nil {
			t.Error("double unpin should panic")
		}
	}()
	p.Unpin(f, false)
}

func TestPoolHitRate(t *testing.T) {
	p, _ := newTestPool(t, 8)
	f, _ := p.NewPage()
	id := f.ID()
	p.Unpin(f, true)
	for i := 0; i < 9; i++ {
		g, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		p.Unpin(g, false)
	}
	if st := p.Stats(); st.Hits != 9 || st.Misses != 0 {
		t.Errorf("hits %d, misses %d; want 9 and 0", st.Hits, st.Misses)
	}
	p.ResetStats()
	if p.Stats().Hits != 0 {
		t.Error("ResetStats did not zero")
	}
}

// pinnedTwice returns a fresh page's frame pinned twice: f and g are
// the same frame, as two callers would hold it.
func pinnedTwice(t *testing.T) (p *Pool, f, g *Frame) {
	t.Helper()
	p, _ = newTestPool(t, 4)
	f, err := p.NewPage()
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	if g, err = p.Fetch(f.ID()); err != nil || g != f {
		t.Fatalf("Fetch: %v (frame %p, want %p)", err, g, f)
	}
	return p, f, g
}

// TestTryLockGivesUpWhenHeld is §2.1.3's give-up rule on a frame: a
// cache write's TryLock fails at once while another caller holds the
// frame's latch exclusively, and succeeds once it is released.
func TestTryLockGivesUpWhenHeld(t *testing.T) {
	p, f, g := pinnedTwice(t)
	f.Latch.Lock()
	if g.Latch.TryLock() {
		t.Fatal("TryLock succeeded while held exclusively")
	}
	f.Latch.Unlock()
	if !g.Latch.TryLock() {
		t.Fatal("TryLock failed on a free latch")
	}
	g.Latch.Unlock()
	p.Unpin(g, false)
	p.Unpin(f, false)
}

// TestSharedHoldersBlockExclusiveTry: a reader's shared hold makes a
// cache write give up too.
func TestSharedHoldersBlockExclusiveTry(t *testing.T) {
	p, f, g := pinnedTwice(t)
	f.Latch.RLock()
	if g.Latch.TryLock() {
		t.Fatal("TryLock succeeded under a shared hold")
	}
	f.Latch.RUnlock()
	p.Unpin(g, false)
	p.Unpin(f, false)
}

func TestPoolCapacityValidation(t *testing.T) {
	disk, _ := storage.NewMemDisk(256)
	if _, err := NewPool(disk, 0); err == nil {
		t.Error("zero capacity should fail")
	}
}

// resident reports whether the page is currently in the pool.
func resident(p *Pool, id storage.PageID) bool {
	p.mu.Lock()
	_, ok := p.table[id]
	p.mu.Unlock()
	return ok
}
