//go:build !race

// The detector's shadow memory moves both numbers these tests bound.

package buffer

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

// nullDisk is a DiskManager with no memory of its own — every page
// reads as zero — so a test can attribute heap and RSS growth to the
// pool alone.
type nullDisk struct {
	pageSize int
	n        uint64
}

func (d *nullDisk) Allocate() (storage.PageID, error) { d.n++; return storage.PageID(d.n), nil }
func (d *nullDisk) ReadPage(_ storage.PageID, buf []byte) error {
	clear(buf)
	return nil
}
func (d *nullDisk) WritePage(storage.PageID, []byte) error { return nil }
func (d *nullDisk) NumPages() uint64                       { return d.n + 1 }
func (d *nullDisk) PageSize() int                          { return d.pageSize }
func (d *nullDisk) Sync() error                            { return nil }
func (d *nullDisk) Close() error                           { return nil }

// statusKB reads one "Vm...:" line of /proc/self/status, skipping the
// test where there is none.
func statusKB(t *testing.T, key string) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("%s%s: %v", key, rest, err)
			}
			return kb
		}
	}
	t.Skipf("%s not in /proc/self/status", key)
	return 0
}

// touchPages brings n new pages into the pool and writes one byte of
// each, so every one of them is resident.
func touchPages(t *testing.T, p *Pool, n int) {
	t.Helper()
	for range n {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = 1
		p.Unpin(f, false)
	}
}

func TestPoolPagesAreNotOnTheGoHeap(t *testing.T) {
	const pages, pageSize = 4096, 8192
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := NewPool(&nullDisk{pageSize: pageSize}, pages)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	touchPages(t, p, pages)
	runtime.ReadMemStats(&after)
	if p.ResidentPages() != pages {
		t.Fatalf("%d pages resident, want %d", p.ResidentPages(), pages)
	}
	// 32 MiB of page memory is in use; the heap holds the frame slab
	// and the page tables.
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("HeapAlloc grew by %d bytes filling a %d-page pool, want < 1 MiB", grew, pages)
	}
}

func TestPoolResidencyFollowsPagesTouched(t *testing.T) {
	const capacity, pageSize, touched = 65536, 8192, 64
	before := statusKB(t, "VmRSS:")
	p, err := NewPool(&nullDisk{pageSize: pageSize}, capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	touchPages(t, p, touched)
	// The arena reserves 512 MiB of address space; 64 pages of it are
	// 512 KiB of memory.
	if grew := statusKB(t, "VmRSS:") - before; grew >= 4<<10 {
		t.Fatalf("VmRSS grew by %d kB touching %d pages of a %d-page pool, want < 4 MiB", grew, touched, capacity)
	}
}

// Pools nobody closes (tests, experiments) give their arenas back when
// the collector finds them unreachable: address space does not pile up.
func TestUnclosedPoolsAreUnmappedByTheCollector(t *testing.T) {
	const pools, pages, pageSize = 64, 4096, 8192 // 32 MiB each, 2 GiB together
	before := statusKB(t, "VmSize:")
	for range pools {
		p, err := NewPool(&nullDisk{pageSize: pageSize}, pages)
		if err != nil {
			t.Fatal(err)
		}
		touchPages(t, p, 1)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		grew := statusKB(t, "VmSize:") - before
		if grew < 8*pages*pageSize>>10 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("VmSize still %d kB above its start after %d unclosed pools became garbage", grew, pools)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
