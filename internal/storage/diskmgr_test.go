package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMemDiskBasics(t *testing.T) {
	d, err := NewMemDisk(256)
	if err != nil {
		t.Fatalf("NewMemDisk: %v", err)
	}
	defer d.Close()
	if d.NumPages() != 1 {
		t.Errorf("fresh disk has %d pages, want 1 (reserved page 0)", d.NumPages())
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	buf := make([]byte, 256)
	copy(buf, "hello")
	if err := d.WritePage(id, buf); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	got := make([]byte, 256)
	if err := d.ReadPage(id, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(buf, got) {
		t.Error("read back mismatch")
	}
}

func TestMemDiskErrors(t *testing.T) {
	if _, err := NewMemDisk(16); err == nil {
		t.Error("page size below minimum should fail")
	}
	d, _ := NewMemDisk(256)
	if err := d.ReadPage(99, make([]byte, 256)); err == nil {
		t.Error("read of unallocated page should fail")
	}
	if err := d.WritePage(0, make([]byte, 128)); err == nil {
		t.Error("short buffer should fail")
	}
	d.Close()
	if _, err := d.Allocate(); err == nil {
		t.Error("allocate after close should fail")
	}
}

func TestFileDiskPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := NewFileDisk(path, 256)
	if err != nil {
		t.Fatalf("NewFileDisk: %v", err)
	}
	id, err := d.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	buf := make([]byte, 256)
	copy(buf, "persistent")
	if err := d.WritePage(id, buf); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen and read back.
	d2, err := NewFileDisk(path, 256)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d2.Close()
	if d2.NumPages() != 2 {
		t.Errorf("reopened disk has %d pages, want 2", d2.NumPages())
	}
	got := make([]byte, 256)
	if err := d2.ReadPage(id, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(buf, got) {
		t.Error("persisted page mismatch")
	}
}

// TestFileDiskAllocateGrowsZeroPages: N Allocates on a fresh file leave
// it N pages past the reserved page 0, each new page reading as zeros —
// through the disk and in the file itself — though nothing wrote them.
func TestFileDiskAllocateGrowsZeroPages(t *testing.T) {
	const pageSize, n = 256, 40
	path := filepath.Join(t.TempDir(), "pages.db")
	d, err := NewFileDisk(path, pageSize)
	if err != nil {
		t.Fatalf("NewFileDisk: %v", err)
	}
	defer d.Close()
	for i := 1; i <= n; i++ {
		id, err := d.Allocate()
		if err != nil {
			t.Fatalf("Allocate %d: %v", i, err)
		}
		if id != PageID(i) {
			t.Fatalf("Allocate %d returned %v", i, id)
		}
	}
	if got := d.NumPages(); got != n+1 {
		t.Fatalf("NumPages = %d, want %d", got, n+1)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(raw) != (n+1)*pageSize {
		t.Fatalf("file is %d bytes, want %d", len(raw), (n+1)*pageSize)
	}
	zero := make([]byte, pageSize)
	if !bytes.Equal(raw, bytes.Repeat(zero, n+1)) {
		t.Fatal("the file holds non-zero bytes")
	}
	got := make([]byte, pageSize)
	for id := PageID(1); id <= n; id++ {
		copy(got, bytes.Repeat([]byte{0xDB}, pageSize))
		if err := d.ReadPage(id, got); err != nil {
			t.Fatalf("ReadPage %v: %v", id, err)
		}
		if !bytes.Equal(got, zero) {
			t.Fatalf("page %v is not zeroed", id)
		}
	}
	if err := d.ReadPage(n+1, got); err == nil {
		t.Fatal("read past the last allocated page succeeded")
	}
}

// TestFileDiskConcurrentIO: writers allocate pages, write them round
// after round and read each write back, a reader reads back the pages
// the writers are done with, and a syncer fsyncs the file the whole
// time — no lock is shared between them (run it under -race). The pool
// never reads a page while writing it, so neither does the test. Every
// read must return the page as last written.
func TestFileDiskConcurrentIO(t *testing.T) {
	const pageSize, writers, perWriter, rounds = 256, 4, 24, 3
	d, err := NewFileDisk(filepath.Join(t.TempDir(), "pages.db"), pageSize)
	if err != nil {
		t.Fatalf("NewFileDisk: %v", err)
	}
	defer d.Close()
	content := func(id PageID, round int) []byte {
		return bytes.Repeat([]byte(fmt.Sprintf("page %6d round %d|", id, round)), pageSize)[:pageSize]
	}
	check := func(id PageID, round int, buf []byte) error {
		if err := d.ReadPage(id, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf, content(id, round)) {
			return fmt.Errorf("page %v reads %q, want round %d", id, buf[:20], round)
		}
		return nil
	}
	var (
		mu     sync.Mutex
		done   []PageID // pages whose last round is written
		stop   atomic.Bool
		wg, bg sync.WaitGroup
		errc   = make(chan error, writers+2)
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, pageSize)
			for i := 0; i < perWriter; i++ {
				id, err := d.Allocate()
				if err != nil {
					errc <- err
					return
				}
				for r := 0; r < rounds; r++ {
					if err := d.WritePage(id, content(id, r)); err != nil {
						errc <- err
						return
					}
					if err := check(id, r, buf); err != nil {
						errc <- err
						return
					}
				}
				mu.Lock()
				done = append(done, id)
				mu.Unlock()
			}
		}()
	}
	bg.Add(2)
	go func() { // syncer
		defer bg.Done()
		for !stop.Load() {
			if err := d.Sync(); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() { // reader of finished pages
		defer bg.Done()
		buf := make([]byte, pageSize)
		for !stop.Load() {
			mu.Lock()
			ids := done[:len(done):len(done)]
			mu.Unlock()
			for _, id := range ids {
				if err := check(id, rounds-1, buf); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	stop.Store(true)
	bg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := d.NumPages(); got != writers*perWriter+1 {
		t.Fatalf("NumPages = %d, want %d", got, writers*perWriter+1)
	}
	buf := make([]byte, pageSize)
	for id := PageID(1); id <= writers*perWriter; id++ {
		if err := check(id, rounds-1, buf); err != nil {
			t.Fatalf("after the storm: %v", err)
		}
	}
}

func TestCountingDisk(t *testing.T) {
	inner, _ := NewMemDisk(256)
	d := NewCountingDisk(inner)
	defer d.Close()
	id, _ := d.Allocate()
	buf := make([]byte, 256)
	for i := 0; i < 3; i++ {
		if err := d.WritePage(id, buf); err != nil {
			t.Fatalf("WritePage: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := d.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage: %v", err)
		}
	}
	if d.Writes() != 3 || d.Reads() != 5 {
		t.Errorf("counts = %d writes / %d reads, want 3/5", d.Writes(), d.Reads())
	}
	d.ResetCounts()
	if d.Writes() != 0 || d.Reads() != 0 {
		t.Error("ResetCounts did not zero")
	}
}

func TestRIDPackUnpack(t *testing.T) {
	cases := []RID{
		{Page: 1, Slot: 0},
		{Page: 12345, Slot: 678},
		{Page: 1 << 40, Slot: 65535},
	}
	for _, r := range cases {
		got := UnpackRID(r.Pack())
		if got != r {
			t.Errorf("Pack/Unpack %v -> %v", r, got)
		}
	}
	if InvalidRID.Valid() {
		t.Error("InvalidRID should not be valid")
	}
	if !(RID{Page: 3, Slot: 1}).Valid() {
		t.Error("real RID should be valid")
	}
}
