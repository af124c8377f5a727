package buffer

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// benchPool builds a pool with an explicit shard count over nPages
// pre-written pages, returning the page ids.
func benchPool(b *testing.B, capacity, shards, nPages int) (*Pool, []storage.PageID) {
	b.Helper()
	disk, err := storage.NewMemDisk(4096)
	if err != nil {
		b.Fatal(err)
	}
	p, err := newPoolShards(disk, capacity, shards)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]storage.PageID, nPages)
	for i := range ids {
		f, err := p.NewPage()
		if err != nil {
			b.Fatal(err)
		}
		binary.LittleEndian.PutUint64(f.Data(), uint64(i))
		ids[i] = f.ID()
		p.Unpin(f, true)
	}
	return p, ids
}

// BenchmarkPoolFetchHitParallel measures the all-hits path: working set
// fits, every Fetch is a table hit. shards=1 reproduces the old
// single-mutex pool for comparison.
func BenchmarkPoolFetchHitParallel(b *testing.B) {
	for _, shards := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, ids := benchPool(b, 1024, shards, 512)
			var seq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := seq.Add(1) * 0x9E3779B9
				for pb.Next() {
					i++
					f, err := p.Fetch(ids[i%uint64(len(ids))])
					if err != nil {
						b.Error(err)
						return
					}
					p.Unpin(f, false)
				}
			})
		})
	}
}

// BenchmarkPoolFetchMissParallel forces constant eviction: the working
// set is 8× the pool, so most fetches are misses that read from the
// (in-memory) disk and evict a victim.
func BenchmarkPoolFetchMissParallel(b *testing.B) {
	for _, shards := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, ids := benchPool(b, 64, shards, 512)
			var seq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := seq.Add(1) * 0x9E3779B9
				for pb.Next() {
					i = i*1103515245 + 12345
					f, err := p.Fetch(ids[i%uint64(len(ids))])
					if err != nil {
						b.Error(err)
						return
					}
					p.Unpin(f, false)
				}
			})
		})
	}
}

// BenchmarkPoolMixedParallel interleaves reads with dirty writes (1 in
// 8), the pattern of lookup traffic with index maintenance riding
// along.
func BenchmarkPoolMixedParallel(b *testing.B) {
	for _, shards := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, ids := benchPool(b, 256, shards, 512)
			var seq atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := seq.Add(1) * 0x9E3779B9
				for pb.Next() {
					i = i*1103515245 + 12345
					f, err := p.Fetch(ids[i%uint64(len(ids))])
					if err != nil {
						b.Error(err)
						return
					}
					dirty := i%8 == 0
					if dirty {
						f.Latch.Lock()
						binary.LittleEndian.PutUint64(f.Data(), i)
						f.Latch.Unlock()
					}
					p.Unpin(f, dirty)
				}
			})
		})
	}
}
