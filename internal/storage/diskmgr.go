package storage

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// DiskManager abstracts the page store underneath the buffer pool.
type DiskManager interface {
	// Allocate reserves a new zeroed page and returns its id.
	Allocate() (PageID, error)
	// ReadPage fills buf (len == PageSize) with the page's contents.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (len == PageSize) as the page's contents.
	WritePage(id PageID, buf []byte) error
	// NumPages returns the number of allocated pages, including the
	// reserved page 0.
	NumPages() uint64
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Sync flushes every completed write to stable storage. Durability
	// layers (the WAL, checkpoints) order their writes around it; a
	// manager with no volatile cache (MemDisk) may no-op.
	//
	// nblb:blocking-io
	Sync() error
	// Close releases resources. The manager is unusable afterwards.
	Close() error
}

// MemDisk is an in-memory DiskManager. It backs all tests and the
// simulation experiments (the paper's Figure 2 setup keeps the index
// and buffer pool "in large in-memory arrays").
type MemDisk struct {
	mu       sync.RWMutex
	pageSize int
	pages    [][]byte
	closed   bool
}

// NewMemDisk creates an in-memory disk with the given page size. The
// reserved page 0 is allocated immediately.
func NewMemDisk(pageSize int) (*MemDisk, error) {
	if pageSize < MinPageSize {
		return nil, fmt.Errorf("storage: page size %d below minimum %d", pageSize, MinPageSize)
	}
	d := &MemDisk{pageSize: pageSize}
	d.pages = append(d.pages, make([]byte, pageSize)) // page 0
	return d, nil
}

// Allocate implements DiskManager.
func (d *MemDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPageID, fmt.Errorf("storage: allocate on closed MemDisk")
	}
	id := PageID(len(d.pages))
	d.pages = append(d.pages, make([]byte, d.pageSize))
	return id, nil
}

// ReadPage implements DiskManager.
func (d *MemDisk) ReadPage(id PageID, buf []byte) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.closed {
		return fmt.Errorf("storage: read on closed MemDisk")
	}
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: read of unallocated %v", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, page size is %d", len(buf), d.pageSize)
	}
	copy(buf, d.pages[id])
	return nil
}

// WritePage implements DiskManager.
func (d *MemDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("storage: write on closed MemDisk")
	}
	if int(id) >= len(d.pages) {
		return fmt.Errorf("storage: write of unallocated %v", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: write buffer is %d bytes, page size is %d", len(buf), d.pageSize)
	}
	copy(d.pages[id], buf)
	return nil
}

// NumPages implements DiskManager.
func (d *MemDisk) NumPages() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return uint64(len(d.pages))
}

// PageSize implements DiskManager.
func (d *MemDisk) PageSize() int { return d.pageSize }

// Sync implements DiskManager. Memory is as stable as a MemDisk gets,
// so this is a no-op.
func (d *MemDisk) Sync() error { return nil }

// Close implements DiskManager.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	d.pages = nil
	return nil
}

// FileDisk is a DiskManager over a single file: page i lives at byte
// offset i*PageSize. Page reads, writes and syncs run concurrently —
// positional I/O on an *os.File needs no lock — so a pool miss never
// waits behind a checkpoint's fsync; only the file's growth is
// serialised.
type FileDisk struct {
	f        *os.File
	pageSize int
	mu       sync.Mutex    // serialises Allocate
	numPages atomic.Uint64 // stored after the file has grown to hold them
}

// NewFileDisk opens (or creates) the file at path. An existing file's
// length must be a multiple of pageSize.
func NewFileDisk(path string, pageSize int) (*FileDisk, error) {
	if pageSize < MinPageSize {
		return nil, fmt.Errorf("storage: page size %d below minimum %d", pageSize, MinPageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	d := &FileDisk{f: f, pageSize: pageSize}
	if st.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s length %d is not a multiple of page size %d", path, st.Size(), pageSize)
	}
	d.numPages.Store(uint64(st.Size()) / uint64(pageSize))
	if d.numPages.Load() == 0 {
		// Materialize the reserved page 0.
		if _, err := d.Allocate(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return d, nil
}

// Allocate implements DiskManager. The file is extended, not written:
// the new page is a hole that reads as zeros until its first write.
func (d *FileDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.numPages.Load()
	if err := d.f.Truncate(int64(n+1) * int64(d.pageSize)); err != nil {
		return InvalidPageID, fmt.Errorf("storage: grow file: %w", err)
	}
	d.numPages.Store(n + 1)
	return PageID(n), nil
}

// ReadPage implements DiskManager.
func (d *FileDisk) ReadPage(id PageID, buf []byte) error {
	if uint64(id) >= d.numPages.Load() {
		return fmt.Errorf("storage: read of unallocated %v", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, page size is %d", len(buf), d.pageSize)
	}
	_, err := d.f.ReadAt(buf, int64(id)*int64(d.pageSize))
	if err != nil {
		return fmt.Errorf("storage: read %v: %w", id, err)
	}
	return nil
}

// WritePage implements DiskManager.
func (d *FileDisk) WritePage(id PageID, buf []byte) error {
	if uint64(id) >= d.numPages.Load() {
		return fmt.Errorf("storage: write of unallocated %v", id)
	}
	if len(buf) != d.pageSize {
		return fmt.Errorf("storage: write buffer is %d bytes, page size is %d", len(buf), d.pageSize)
	}
	if _, err := d.f.WriteAt(buf, int64(id)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("storage: write %v: %w", id, err)
	}
	return nil
}

// NumPages implements DiskManager.
func (d *FileDisk) NumPages() uint64 { return d.numPages.Load() }

// PageSize implements DiskManager.
func (d *FileDisk) PageSize() int { return d.pageSize }

// Sync flushes the file to stable storage.
//
// nblb:blocking-io
func (d *FileDisk) Sync() error { return d.f.Sync() }

// Close implements DiskManager.
func (d *FileDisk) Close() error { return d.f.Close() }

// CountingDisk wraps a DiskManager and counts page reads and writes.
// The simulation experiments convert these counts into time via
// metrics.CostModel instead of sleeping, which keeps benchmarks fast
// and machine-independent.
type CountingDisk struct {
	inner  DiskManager
	reads  atomic.Int64
	writes atomic.Int64
	syncs  atomic.Int64
}

// NewCountingDisk wraps inner.
func NewCountingDisk(inner DiskManager) *CountingDisk {
	return &CountingDisk{inner: inner}
}

// Reads returns the number of page reads so far.
func (d *CountingDisk) Reads() int64 { return d.reads.Load() }

// Writes returns the number of page writes so far.
func (d *CountingDisk) Writes() int64 { return d.writes.Load() }

// Syncs returns the number of Sync calls so far — the durability
// experiments' fsync-amortization metric.
func (d *CountingDisk) Syncs() int64 { return d.syncs.Load() }

// ResetCounts zeroes all counters.
func (d *CountingDisk) ResetCounts() {
	d.reads.Store(0)
	d.writes.Store(0)
	d.syncs.Store(0)
}

// Allocate implements DiskManager.
func (d *CountingDisk) Allocate() (PageID, error) { return d.inner.Allocate() }

// ReadPage implements DiskManager.
func (d *CountingDisk) ReadPage(id PageID, buf []byte) error {
	d.reads.Add(1)
	return d.inner.ReadPage(id, buf)
}

// WritePage implements DiskManager.
func (d *CountingDisk) WritePage(id PageID, buf []byte) error {
	d.writes.Add(1)
	return d.inner.WritePage(id, buf)
}

// NumPages implements DiskManager.
func (d *CountingDisk) NumPages() uint64 { return d.inner.NumPages() }

// PageSize implements DiskManager.
func (d *CountingDisk) PageSize() int { return d.inner.PageSize() }

// Sync implements DiskManager, counting the call.
func (d *CountingDisk) Sync() error {
	d.syncs.Add(1)
	return d.inner.Sync()
}

// Close implements DiskManager.
func (d *CountingDisk) Close() error { return d.inner.Close() }

var (
	_ DiskManager = (*MemDisk)(nil)
	_ DiskManager = (*FileDisk)(nil)
	_ DiskManager = (*CountingDisk)(nil)
)
