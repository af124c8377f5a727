package buffer

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
)

func TestPoolCloseIsIdempotent(t *testing.T) {
	p, _ := newTestPool(t, 4)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(f, true)
	for i := range 3 {
		if err := p.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}

func TestPoolUseAfterCloseIsErrPoolClosed(t *testing.T) {
	p, _ := newTestPool(t, 4)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	p.Unpin(f, true)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	pages := p.Disk().NumPages()
	if _, err := p.Fetch(id); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Fetch of a resident page after Close: %v, want ErrPoolClosed", err)
	}
	if _, err := p.Fetch(id + 100); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Fetch miss after Close: %v, want ErrPoolClosed", err)
	}
	if _, err := p.NewPage(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("NewPage after Close: %v, want ErrPoolClosed", err)
	}
	if got := p.Disk().NumPages(); got != pages {
		t.Errorf("NewPage after Close grew the disk from %d to %d pages", pages, got)
	}
	// The dirty frame's memory is gone: the walks that would read it
	// must refuse instead.
	if err := p.FlushAll(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("FlushAll after Close: %v, want ErrPoolClosed", err)
	}
	if err := p.EvictAll(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("EvictAll after Close: %v, want ErrPoolClosed", err)
	}
	err = p.DirtyPages(func(storage.PageID, []byte) error { t.Error("DirtyPages visited a page after Close"); return nil })
	if !errors.Is(err, ErrPoolClosed) {
		t.Errorf("DirtyPages after Close: %v, want ErrPoolClosed", err)
	}
}

func TestPoolCloseWithPinnedFrameKeepsItReadable(t *testing.T) {
	p, _ := newTestPool(t, 4)
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	copy(f.Data(), "still here")
	g, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}

	err = p.Close()
	if err == nil || !strings.Contains(err.Error(), "2 pinned") {
		t.Fatalf("Close with two pinned frames: %v, want an error naming the count", err)
	}
	if !bytes.HasPrefix(f.Data(), []byte("still here")) {
		t.Fatalf("pinned frame reads %q after the refused Close", f.Data()[:10])
	}
	f.Data()[0] = 'S' // and stays writable
	if _, err := p.NewPage(); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("NewPage after a refused Close: %v, want ErrPoolClosed", err)
	}

	p.Unpin(g, false)
	if err := p.Close(); err == nil || !strings.Contains(err.Error(), "1 pinned") {
		t.Fatalf("Close with one pinned frame: %v, want an error naming the count", err)
	}
	p.Unpin(f, false)
	if err := p.Close(); err != nil {
		t.Fatalf("Close after the last Unpin: %v", err)
	}
}

// A frame that held a page's bytes must not show them to the next page
// it is given: NewPage promises zeroes, and fresh arena memory being
// zero already must not be what keeps the promise.
func TestPoolNewPageReusingEvictedFrameReadsZero(t *testing.T) {
	p, _ := newTestPool(t, 1)
	defer p.Close()
	f, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	first := &f.Data()[0]
	for i := range f.Data() {
		f.Data()[i] = 0xFF
	}
	p.Unpin(f, true)

	g, err := p.NewPage()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(g, false)
	if &g.Data()[0] != first {
		t.Fatal("a one-frame pool handed out different memory for its second page")
	}
	if i := bytes.IndexFunc(g.Data(), func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("reused frame reads %#x at byte %d, want all zero", g.Data()[i], i)
	}
}

// The arena's cleanup hangs off an object every frame chunk points at,
// so a *Frame alone keeps its page mapped after the Pool itself is
// garbage. Were it attached to the Pool, the read below would fault.
func TestFrameAloneKeepsArenaMapped(t *testing.T) {
	f := func() *Frame {
		p, _ := newTestPool(t, 4)
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		copy(f.Data(), "outlives the pool")
		return f
	}()
	for range 3 {
		runtime.GC()
	}
	if !bytes.HasPrefix(f.Data(), []byte("outlives the pool")) {
		t.Fatalf("frame reads %q after its pool was collected", f.Data()[:17])
	}
}

// Readers hammer a small pool while Close is retried until no pin is in
// its way. Whatever the interleaving, a reader either gets a frame it
// can read or ErrPoolClosed — never memory Close has unmapped. Shards
// are forced so that misses steal across them.
func TestPoolCloseRacingFetch(t *testing.T) {
	disk, err := storage.NewMemDisk(256)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPoolShards(disk, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	var ids []storage.PageID
	for range 32 {
		f, err := p.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		f.Data()[0] = byte(f.ID())
		ids = append(ids, f.ID())
		p.Unpin(f, true)
	}

	var wg sync.WaitGroup
	started := make(chan struct{}, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; ; i++ {
				if i == w+64 {
					started <- struct{}{}
				}
				id := ids[i%len(ids)]
				var f *Frame
				var err error
				if i%8 == 0 {
					f, err = p.NewPage()
				} else {
					f, err = p.Fetch(id)
				}
				if errors.Is(err, ErrPoolClosed) {
					return
				}
				if err != nil {
					continue // every frame pinned for a moment: 4 readers, 8 frames, steals in flight
				}
				if i%8 != 0 && f.Data()[0] != byte(id) {
					t.Errorf("page %v reads %#x", id, f.Data()[0])
				}
				p.Unpin(f, false)
			}
		}()
	}
	for range 4 {
		<-started
	}
	for p.Close() != nil {
		runtime.Gosched()
	}
	wg.Wait()
	if n := p.PinnedFrames(); n != 0 {
		t.Fatalf("%d frames pinned after Close succeeded", n)
	}
}
