package buffer

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/storage"
)

// gateDisk parks every ReadPage of one page until open is closed, and
// counts those reads. entered receives once per parked read; its room
// for 16 lets a test ignore reads it does not wait for (none makes
// more than two).
type gateDisk struct {
	storage.DiskManager
	page    storage.PageID
	entered chan struct{}
	open    chan struct{}
	reads   atomic.Int32
}

func newGateDisk(inner storage.DiskManager) *gateDisk {
	return &gateDisk{DiskManager: inner, page: storage.InvalidPageID, entered: make(chan struct{}, 16), open: make(chan struct{})}
}

func (d *gateDisk) ReadPage(id storage.PageID, buf []byte) error {
	if id == d.page {
		d.reads.Add(1)
		d.entered <- struct{}{}
		<-d.open
	}
	return d.DiskManager.ReadPage(id, buf)
}

// coldPages makes n pages whose first bytes are "page-<i>", writes them
// to disk and evicts them, so each next Fetch is a miss.
func coldPages(t *testing.T, p *Pool, n int) []storage.PageID {
	t.Helper()
	ids := make([]storage.PageID, n)
	for i := range ids {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		copy(f.Data(), "page-"+string(rune('a'+i)))
		ids[i] = f.ID()
		p.Unpin(f, true)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.EvictAll(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// rewrite puts new bytes on disk under a cold page, so a Fetch that
// did not read it back sees the bytes its frame held before.
func rewrite(t *testing.T, disk storage.DiskManager, id storage.PageID, s string) {
	t.Helper()
	buf := make([]byte, disk.PageSize())
	copy(buf, s)
	if err := disk.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
}

// fetchResult is one Fetch run on its own goroutine.
type fetchResult struct {
	f   *Frame
	err error
}

func goFetch(p *Pool, id storage.PageID) <-chan fetchResult {
	ch := make(chan fetchResult, 1)
	go func() {
		f, err := p.Fetch(id)
		ch <- fetchResult{f, err}
	}()
	return ch
}

// pinsOn waits until the frame bound to id carries want pins: the
// loader's and each waiter's.
func pinsOn(t *testing.T, p *Pool, id storage.PageID, want int32) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		p.mu.Lock()
		f := p.table[id]
		n := int32(0)
		if f != nil {
			n = f.pins.Load()
		}
		p.mu.Unlock()
		if n == want {
			return
		}
	}
	t.Fatalf("page %v never carried %d pins", id, want)
}

// A miss reads its page with the pool mutex released: a hit on another
// page returns while the read is parked. The pool is small enough (8
// frames) that a pool sharded by page id would have one shard, so the
// read would hold the only mutex the hit needs.
func TestHitReturnsWhileAnotherPageReads(t *testing.T) {
	mem, err := storage.NewMemDisk(256)
	if err != nil {
		t.Fatal(err)
	}
	disk := newGateDisk(mem)
	p, err := NewPool(disk, 8)
	if err != nil {
		t.Fatal(err)
	}
	ids := coldPages(t, p, 2)
	a, b := ids[0], ids[1]
	fb, err := p.Fetch(b)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fb, false)

	disk.page = a
	loadA := goFetch(p, a)
	<-disk.entered
	hitB := goFetch(p, b)
	select {
	case r := <-hitB:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !bytes.HasPrefix(r.f.Data(), []byte("page-b")) {
			t.Errorf("page b reads %q", r.f.Data()[:6])
		}
		p.Unpin(r.f, false)
	case <-time.After(5 * time.Second):
		close(disk.open)
		<-hitB
		t.Fatal("a hit on page b waited for page a's read")
	}
	close(disk.open)
	r := <-loadA
	if r.err != nil {
		t.Fatal(r.err)
	}
	if !bytes.HasPrefix(r.f.Data(), []byte("page-a")) {
		t.Errorf("page a reads %q", r.f.Data()[:6])
	}
	p.Unpin(r.f, false)
	if n := p.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames pinned", n)
	}
}

// Concurrent Fetches of one missing page share one read; the ones that
// arrive during it wait for it and see its bytes.
func TestConcurrentMissesShareOneRead(t *testing.T) {
	mem, _ := storage.NewMemDisk(256)
	disk := newGateDisk(mem)
	p, _ := NewPool(disk, 8)
	a := coldPages(t, p, 1)[0]
	rewrite(t, mem, a, "fresh-a")
	disk.page = a

	const waiters = 3
	results := []<-chan fetchResult{goFetch(p, a)}
	<-disk.entered
	for range waiters {
		results = append(results, goFetch(p, a))
	}
	pinsOn(t, p, a, 1+waiters)
	for _, ch := range results[1:] {
		select {
		case <-ch:
			t.Fatal("a waiter returned before the read it waits on finished")
		default:
		}
	}
	close(disk.open)
	var frames []*Frame
	for _, ch := range results {
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !bytes.HasPrefix(r.f.Data(), []byte("fresh-a")) {
			t.Errorf("page a reads %q", r.f.Data()[:7])
		}
		frames = append(frames, r.f)
	}
	for _, f := range frames {
		if f != frames[0] {
			t.Error("concurrent fetches of one page got different frames")
		}
		p.Unpin(f, false)
	}
	if n := disk.reads.Load(); n != 1 {
		t.Errorf("%d reads of page a, want 1", n)
	}
	if st := p.Stats(); st.Misses != 1 || st.Hits != waiters {
		t.Errorf("stats %+v, want 1 miss and %d hits", st, waiters)
	}
	if n := p.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames pinned", n)
	}
}

// A read that fails reaches its loader; a Fetch waiting on it retries
// with a read of its own and gets that read's result, and no pin or
// frame is left behind.
func TestFailedReadWaiterRetries(t *testing.T) {
	t.Run("injected fault, retry succeeds", func(t *testing.T) {
		mem, _ := storage.NewMemDisk(256)
		entered, open := make(chan struct{}), make(chan struct{})
		disk := storage.NewFaultDisk(mem, storage.FaultPlan{})
		p, _ := NewPool(disk, 8)
		a := coldPages(t, p, 1)[0]
		rewrite(t, mem, a, "fresh-a")
		disk.Rearm(storage.FaultPlan{Op: storage.FaultRead, After: 1, OnFault: func() {
			close(entered)
			<-open
		}})
		load := goFetch(p, a)
		<-entered
		wait := goFetch(p, a)
		pinsOn(t, p, a, 2)
		close(open)
		if r := <-load; !errors.Is(r.err, storage.ErrInjected) {
			t.Fatalf("loader got %v, want the injected fault", r.err)
		}
		r := <-wait
		if r.err != nil {
			t.Fatalf("waiter's retry: %v", r.err)
		}
		if !bytes.HasPrefix(r.f.Data(), []byte("fresh-a")) {
			t.Errorf("page a reads %q", r.f.Data()[:7])
		}
		p.Unpin(r.f, false)
		if n := p.PinnedFrames(); n != 0 {
			t.Fatalf("%d frames pinned", n)
		}
	})
	t.Run("unallocated page, retry fails too", func(t *testing.T) {
		mem, _ := storage.NewMemDisk(256)
		disk := newGateDisk(mem)
		p, _ := NewPool(disk, 8)
		coldPages(t, p, 1)
		disk.page = storage.PageID(mem.NumPages() + 5)
		load := goFetch(p, disk.page)
		<-disk.entered
		wait := goFetch(p, disk.page)
		pinsOn(t, p, disk.page, 2)
		close(disk.open)
		for _, ch := range []<-chan fetchResult{load, wait} {
			if r := <-ch; r.err == nil || !strings.Contains(r.err.Error(), "read of unallocated") {
				t.Fatalf("got %v, want a read of an unallocated page", r.err)
			}
		}
		if n := disk.reads.Load(); n != 2 {
			t.Errorf("%d reads, want 2: the waiter's retry reads for itself", n)
		}
		if n := p.PinnedFrames(); n != 0 {
			t.Fatalf("%d frames pinned", n)
		}
	})
}

// Every failed read gives its frame back: an N-frame pool serves N
// pinned pages after N+1 failed reads in a row and N at once.
func TestFailedReadsReturnTheirFrames(t *testing.T) {
	const n = 4
	p, disk := newTestPool(t, n)
	ids := coldPages(t, p, n)
	missing := storage.PageID(disk.NumPages() + 1)
	wantReadErr := func(err error) {
		if err == nil || !strings.Contains(err.Error(), "read of unallocated") {
			t.Errorf("fetch of an unallocated page: %v", err)
		}
	}
	for range n + 1 {
		_, err := p.Fetch(missing)
		wantReadErr(err)
	}
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := p.Fetch(missing + storage.PageID(i))
			wantReadErr(err)
		}()
	}
	wg.Wait()
	if got := p.PinnedFrames(); got != 0 {
		t.Fatalf("%d frames pinned after failed reads", got)
	}
	var frames []*Frame
	for _, id := range ids {
		f, err := p.Fetch(id)
		if err != nil {
			t.Fatalf("pool of %d frames after failed reads: %v", n, err)
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		p.Unpin(f, false)
	}
}
