package buffer

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/storage"
)

// TestPoolConcurrentFetchUnpin hammers a small pool from many
// goroutines fetching a shared set of pages, forcing constant eviction,
// and verifies every page's content survives the churn.
func TestPoolConcurrentFetchUnpin(t *testing.T) {
	disk, err := storage.NewMemDisk(256)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(disk, 8)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 64
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
			for n := 0; n < 2000; n++ {
				i := (g*17 + n) % pages
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
	st := p.Stats()
	if st.Evictions == 0 {
		t.Error("pool of 8 frames over 64 pages should have evicted")
	}
}

type bufTestErr string

func (e bufTestErr) Error() string { return string(e) }

const errPageCorrupt = bufTestErr("page content corrupted under concurrency")

// TestPoolConcurrentWriters has goroutines each owning disjoint pages,
// mutating them under the frame latch with dirty unpins; all mutations
// must persist across eviction churn.
func TestPoolConcurrentWriters(t *testing.T) {
	disk, _ := storage.NewMemDisk(256)
	p, _ := NewPool(disk, 4)
	const writers = 6
	ids := make([]storage.PageID, writers)
	for i := range ids {
		f, err := p.NewPage()
		if err != nil {
			t.Fatalf("NewPage: %v", err)
		}
		ids[i] = f.ID()
		p.Unpin(f, true)
	}
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 1; n <= 500; n++ {
				f, err := p.Fetch(ids[w])
				if err != nil {
					errCh <- err
					return
				}
				f.Latch.Lock()
				binary.LittleEndian.PutUint64(f.Data(), uint64(n))
				f.Latch.Unlock()
				p.Unpin(f, true)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	for w := 0; w < writers; w++ {
		buf := make([]byte, 256)
		if err := disk.ReadPage(ids[w], buf); err != nil {
			t.Fatalf("ReadPage: %v", err)
		}
		if binary.LittleEndian.Uint64(buf) != 500 {
			t.Errorf("writer %d's final value lost: %d", w, binary.LittleEndian.Uint64(buf))
		}
	}
}

// TestShardedPoolContentsSurviveChurn runs concurrent fetch/unpin
// traffic over a 16-frame pool eight times smaller than the working
// set, verifying contents and the capacity bound.
func TestShardedPoolContentsSurviveChurn(t *testing.T) {
	disk, _ := storage.NewMemDisk(256)
	p, err := NewPool(disk, 16)
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
// test over sixteen pages: EvictAll must drop every volatile write.
func TestShardedEvictAllDropsVolatileWrites(t *testing.T) {
	disk, _ := storage.NewMemDisk(256)
	p, err := NewPool(disk, 32)
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
