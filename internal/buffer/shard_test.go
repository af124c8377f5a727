package buffer

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/storage"
)

func TestNewPoolShardsValidation(t *testing.T) {
	disk, _ := storage.NewMemDisk(256)
	for _, bad := range []int{0, -1, 3, 6, 12} {
		if _, err := newPoolShards(disk, 16, bad); err == nil {
			t.Errorf("shards=%d should be rejected (not a power of two)", bad)
		}
	}
	for _, good := range []int{1, 2, 4, 64} {
		p, err := newPoolShards(disk, 16, good)
		if err != nil {
			t.Fatalf("shards=%d: %v", good, err)
		}
		if p.NumShards() != good {
			t.Errorf("NumShards = %d, want %d", p.NumShards(), good)
		}
	}
}

func TestDefaultShardCountTinyPoolsSingleShard(t *testing.T) {
	disk, _ := storage.NewMemDisk(256)
	for _, cap := range []int{1, 2, 4, 8} {
		p, err := NewPool(disk, cap)
		if err != nil {
			t.Fatal(err)
		}
		if p.NumShards() != 1 {
			t.Errorf("capacity %d: NumShards = %d, want 1 (tiny pools stay coarse)", cap, p.NumShards())
		}
	}
}

// TestCrossShardSteal pins every frame reachable from one shard and
// verifies a fetch routed there borrows a victim from a sibling shard
// instead of failing.
func TestCrossShardSteal(t *testing.T) {
	disk, err := storage.NewMemDisk(256)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPoolShards(disk, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Two pages fill global capacity. Keep the first pinned, release the
	// second: it is the only evictable frame in the whole pool.
	f1, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id2 := f2.ID()
	p.Unpin(f2, true)
	// Allocate pages until one routes to a different shard than id2's —
	// its fetch must steal f2's frame across shards.
	for i := 0; i < 32; i++ {
		id, err := disk.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if p.shardOf(id) == p.shardOf(id2) {
			continue
		}
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("cross-shard fetch should steal a frame: %v", err)
		}
		if p.Resident(id2) {
			t.Error("victim page still resident after cross-shard steal")
		}
		if !p.Resident(f1.ID()) {
			t.Error("pinned page was stolen")
		}
		p.Unpin(f, false)
		p.Unpin(f1, false)
		return
	}
	t.Fatal("no page id routed to a different shard in 32 tries")
}

// TestStealHarvestsSiblingFreeFrames covers the case where the pool is
// at capacity and every existing frame is parked on other shards' free
// lists (e.g. after EvictAll): a fetch routed to a frameless shard must
// harvest one of those free frames, not fail with "all frames pinned".
func TestStealHarvestsSiblingFreeFrames(t *testing.T) {
	disk, _ := storage.NewMemDisk(256)
	p, err := newPoolShards(disk, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	f1, _ := p.NewPage()
	f2, _ := p.NewPage()
	id1 := f1.ID()
	p.Unpin(f1, true)
	p.Unpin(f2, true)
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	// Both frames now sit on their shards' free lists; capacity is
	// exhausted. Find a page id routed to a shard that owns no frames.
	for i := 0; i < 64; i++ {
		id, err := disk.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		s := p.shardOf(id)
		s.mu.Lock()
		empty := len(s.frames) == 0
		s.mu.Unlock()
		if !empty {
			continue
		}
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("fetch into frameless shard must harvest a sibling's free frame: %v", err)
		}
		p.Unpin(f, false)
		// The harvested frame must still be usable for normal traffic.
		g, err := p.Fetch(id1)
		if err != nil {
			t.Fatalf("refetch of evicted page: %v", err)
		}
		p.Unpin(g, false)
		return
	}
	t.Skip("no page id routed to a frameless shard in 64 tries")
}

// TestShardedPoolContentsSurviveChurn runs concurrent fetch/unpin
// traffic over a multi-shard pool smaller than the working set,
// verifying contents and the global capacity bound.
func TestShardedPoolContentsSurviveChurn(t *testing.T) {
	disk, _ := storage.NewMemDisk(256)
	p, err := newPoolShards(disk, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 128
	ids := make([]storage.PageID, pages)
	for i := range ids {
		f, err := p.NewPage()
		if err != nil {
			t.Fatalf("NewPage: %v", err)
		}
		binary.LittleEndian.PutUint64(f.Data(), uint64(i)+1)
		ids[i] = f.ID()
		p.Unpin(f, true)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 3000; n++ {
				i := (g*31 + n*7) % pages
				f, err := p.Fetch(ids[i])
				if err != nil {
					errCh <- err
					return
				}
				f.Latch.RLock()
				v := binary.LittleEndian.Uint64(f.Data())
				f.Latch.RUnlock()
				p.Unpin(f, false)
				if v != uint64(i)+1 {
					errCh <- errPageCorrupt
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if n := p.ResidentPages(); n > p.Capacity() {
		t.Errorf("ResidentPages = %d exceeds capacity %d", n, p.Capacity())
	}
	if st := p.Stats(); st.Evictions == 0 {
		t.Error("16 frames over 128 pages should have evicted")
	}
}

// TestShardedEvictAllDropsVolatileWrites is the volatile-cache contract
// test run against a multi-shard pool: EvictAll must reach every shard.
func TestShardedEvictAllDropsVolatileWrites(t *testing.T) {
	disk, _ := storage.NewMemDisk(256)
	p, err := newPoolShards(disk, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 16
	ids := make([]storage.PageID, pages)
	for i := range ids {
		f, _ := p.NewPage()
		copy(f.Data(), "base-data!")
		ids[i] = f.ID()
		p.Unpin(f, true)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		f, _ := p.Fetch(id)
		copy(f.Data(), "cacheWRITE")
		p.Unpin(f, false) // volatile
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	if n := p.ResidentPages(); n != 0 {
		t.Fatalf("ResidentPages = %d after EvictAll, want 0", n)
	}
	for _, id := range ids {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		got := string(f.Data()[:10])
		p.Unpin(f, false)
		if got != "base-data!" {
			t.Fatalf("volatile write survived eviction: %q", got)
		}
	}
}
