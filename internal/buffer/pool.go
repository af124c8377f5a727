// Package buffer implements the buffer pool: a fixed set of in-memory
// page frames over a storage.DiskManager with clock eviction, pin
// counts, and dirty tracking.
//
// One property matters specially for the paper's index cache
// (Section 2.1): a page can be *mutated in memory without being marked
// dirty*. Such mutations are volatile — eviction of a clean frame drops
// them silently, and no write-back I/O ever happens for them. That is
// exactly the contract index-cache writes need ("cache modifications do
// not dirty the page"), and the CSN invalidation scheme makes losing
// them safe.
//
// The pool is one frame table, one clock hand and one free list under
// one mutex, held only for bookkeeping: a miss binds a frame to its
// page under the mutex, takes the frame's latch, and reads the page
// with the mutex released, so a slow read never stalls hits on other
// pages. A concurrent Fetch of the page being read waits on that latch
// with no mutex held. Unpin is lock-free (atomic pin count and dirty
// bit), which matters because every page access pays it.
//
// Page memory is not on the Go heap: a pool maps one anonymous arena of
// capacity × page size when it is built and every frame's Data is a
// slice of it, so the collector neither scans the cache nor paces
// itself by its size, and a page costs RSS only once touched. Close
// returns the arena; ARCHITECTURE.md "Pool memory" has the lifetime
// rules.
package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// Frame is an in-memory copy of one page, plus bookkeeping.
//
// pins, dirty and loading are atomic so Unpin never takes the pool
// mutex; the clock reference bit and id are only written under it (a
// frame with pins > 0 is never evicted or re-bound, so reading id from
// a pinned frame is safe without it).
type Frame struct {
	id   storage.PageID
	data []byte

	pins    atomic.Int32
	dirty   atomic.Bool
	loading atomic.Bool // a Fetch is reading the page in under Latch
	ref     bool        // clock reference bit; pool mutex only

	// Latch guards the frame's data. The buffer pool hands out frames
	// without holding it; callers latch around their accesses. Cache
	// writes use Latch.TryLock: §2.1.3 has them give up when the latch
	// is not immediately available.
	//
	// Invariant: a caller may only hold the latch while holding a pin,
	// and must release the latch before the pin. Eviction asserts this
	// (see Pool.evict) — it is what lets the latch-crabbing B+Tree
	// treat a latched frame as immune to eviction.
	//
	// nblb:lock frame-latch
	Latch sync.RWMutex
}

// ID returns the page id held by this frame.
func (f *Frame) ID() storage.PageID { return f.id }

// Data returns the page buffer. Mutating it and unpinning the frame
// clean produces a volatile, cache-style change.
func (f *Frame) Data() []byte { return f.data }

// Stats is a snapshot of pool counters.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64
}

// ErrPoolClosed is returned by every operation that would touch page
// memory after Close.
var ErrPoolClosed = errors.New("buffer: pool is closed")

// Pool is a buffer pool of fixed capacity.
//
// Invariants every caller can rely on (and must preserve):
//
//  1. Pin balance: every Fetch/NewPage must be matched by exactly one
//     Unpin. A frame with pins > 0 is never evicted or rebound, so a
//     pinned frame's ID and Data remain valid without any lock.
//  2. Latched ⇒ pinned: a caller may only hold a frame's Latch while
//     holding a pin on it, and must release the Latch before the final
//     Unpin. Together with (1) this means a latched frame is immune to
//     eviction; Pool.evict asserts it (panic on a latched victim).
//  3. Latch/mutex order: pool internals never wait on a frame Latch
//     while holding the pool mutex (callers fetch pages — which takes
//     the mutex — while holding latches on other frames, so the
//     reverse nesting would deadlock). Under the mutex a latch is only
//     ever TryLocked, on an unpinned frame, where it cannot fail.
//     FlushAll pins candidates under the mutex and writes them back
//     under the latch outside it; a Fetch that finds its page still
//     being read waits on the reader's latch outside it too.
//  4. Volatile writes: mutating Data without ever passing dirty=true
//     to Unpin is allowed and produces a cache-style change that
//     eviction silently drops and FlushAll never writes.
//  5. Lifetime: Data is memory the pool mapped, and a successful Close
//     unmaps it. Close refuses while any frame is pinned, so (1) covers
//     this too: a pinned frame's Data stays valid, and a *Frame kept
//     past its Unpin must not be read — after Close that is a fault,
//     before it another page's bytes.
type Pool struct {
	disk     storage.DiskManager
	pageSize int
	maxCap   int
	ndirty   atomic.Int64 // frames with the dirty bit set (see markDirty)
	noSteal  atomic.Bool  // dirty frames immune to eviction (WAL mode)

	mu     sync.Mutex                // nblb:lock buffer-pool
	table  map[storage.PageID]*Frame // resident pages, and pages being read in
	frames []*Frame                  // every frame, clock order; frames[n].data is arena page n
	free   []*Frame                  // detached frames ready for reuse
	spare  []Frame                   // frames of the newest frameChunk not yet handed out
	hand   int                       // clock hand into frames

	hits       atomic.Int64
	misses     atomic.Int64
	evictions  atomic.Int64
	writebacks atomic.Int64

	arena    *arena
	cleanup  runtime.Cleanup
	closed   atomic.Bool // Close was called; checked under mu
	released atomic.Bool // the arena is unmapped
}

// arena is a pool's page memory: one anonymous mapping of capacity ×
// page size. It is a heap object of its own so that the cleanup which
// unmaps mem can hang off it. The Pool and every frameChunk point at
// it, so the collector finds it unreachable only when the pool and
// every *Frame are: a finalizer on the Pool could not promise that.
type arena struct{ mem []byte }

// frameChunk is the unit the pool allocates Frame structs in. Frames
// are made as pages are first used, like the pages themselves — a slab
// of capacity frames up front would be 80 B × capacity of resident
// heap for a pool that may never fill.
type frameChunk struct {
	arena  *arena
	frames [64]Frame
}

// NewPool creates a pool holding up to capacity pages.
func NewPool(disk storage.DiskManager, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity must be at least 1, got %d", capacity)
	}
	mem, err := mapArena(capacity * disk.PageSize())
	if err != nil {
		return nil, fmt.Errorf("buffer: map %d-page arena: %w", capacity, err)
	}
	p := &Pool{
		disk:     disk,
		pageSize: disk.PageSize(),
		maxCap:   capacity,
		table:    make(map[storage.PageID]*Frame, capacity),
		arena:    &arena{mem: mem},
	}
	// The backstop for pools nobody closes; Close stops it.
	p.cleanup = runtime.AddCleanup(p.arena, unmapArena, mem)
	return p, nil
}

// Capacity returns the maximum number of resident pages.
func (p *Pool) Capacity() int { return p.maxCap }

// Disk returns the underlying disk manager.
func (p *Pool) Disk() storage.DiskManager { return p.disk }

// Stats returns a snapshot of the counters. They are atomic and read
// without the mutex, so a snapshot taken during concurrent traffic is
// approximate; quiescent snapshots are exact.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		Evictions:  p.evictions.Load(),
		Writebacks: p.writebacks.Load(),
	}
}

// ResetStats zeroes the pool counters.
func (p *Pool) ResetStats() {
	p.hits.Store(0)
	p.misses.Store(0)
	p.evictions.Store(0)
	p.writebacks.Store(0)
}

// Fetch pins the page into a frame, reading it from disk on a miss.
// Callers must Unpin exactly once per Fetch.
//
// The read happens with the pool mutex released: the frame is bound to
// id and exclusively latched under the mutex, so a concurrent Fetch of
// id finds it, pins it and waits on the latch, and eviction passes it
// over as pinned. A failed read unbinds the frame; a Fetch that waited
// on it then retries as a fresh miss.
//
// nblb:acquires-pin
func (p *Pool) Fetch(id storage.PageID) (*Frame, error) {
	if id == storage.InvalidPageID {
		return nil, fmt.Errorf("buffer: fetch of invalid page id")
	}
	for {
		p.mu.Lock()
		if p.closed.Load() {
			p.mu.Unlock()
			return nil, ErrPoolClosed
		}
		if f, ok := p.table[id]; ok {
			f.pins.Add(1)
			f.ref = true
			loading := f.loading.Load() // cleared under p.mu if the read fails
			p.mu.Unlock()
			if loading && !p.awaitLoad(f, id) {
				continue
			}
			p.hits.Add(1)
			return f, nil
		}
		p.misses.Add(1)
		f, err := p.frameFor()
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if !f.Latch.TryLock() {
			panic(fmt.Sprintf("buffer: loading into latched frame for %v (latch held without a pin)", id))
		}
		p.install(f, id)
		f.loading.Store(true)
		p.mu.Unlock()

		err = p.disk.ReadPage(id, f.data)
		if err == nil {
			f.loading.Store(false)
			f.Latch.Unlock()
			return f, nil
		}
		p.mu.Lock()
		delete(p.table, id)
		f.id = storage.InvalidPageID // tells waiters the read failed
		f.loading.Store(false)
		f.Latch.Unlock()
		p.dropPin(f)
		p.mu.Unlock()
		return nil, err
	}
}

// awaitLoad waits, holding a pin but not the mutex, for the Fetch
// reading f in to finish, and reports whether f now holds id. On false
// the read failed and the waiter's pin is gone.
func (p *Pool) awaitLoad(f *Frame, id storage.PageID) bool {
	f.Latch.RLock()
	ok := f.id == id
	f.Latch.RUnlock()
	if !ok {
		p.mu.Lock()
		p.dropPin(f)
		p.mu.Unlock()
	}
	return ok
}

// dropPin releases a pin on a frame a failed read unbound; whoever
// drops the last one parks the frame on the free list. Such a frame is
// in no table, so no pin on it can be taken any more, and the loader
// and its waiters drop theirs here, under p.mu.
func (p *Pool) dropPin(f *Frame) {
	if f.pins.Add(-1) == 0 {
		f.ref = false
		p.free = append(p.free, f)
	}
}

// NewPage allocates a fresh page on disk and pins it in a zeroed frame.
//
// nblb:acquires-pin
func (p *Pool) NewPage() (*Frame, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed // before the disk grows a page nobody can reach
	}
	id, err := p.disk.Allocate()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	f, err := p.frameFor()
	if err != nil {
		p.mu.Unlock()
		return nil, err
	}
	clear(f.data)
	p.install(f, id)
	p.markDirty(f) // a new page must eventually reach disk
	p.mu.Unlock()
	return f, nil
}

// markDirty sets the frame's dirty bit, keeping the pool-wide dirty
// count exact: the CAS means each set/clear transition is counted once
// no matter how many concurrent Unpin(dirty) calls race.
func (p *Pool) markDirty(f *Frame) {
	if f.dirty.CompareAndSwap(false, true) {
		p.ndirty.Add(1)
	}
}

// clearDirty claims the frame's dirty bit, reporting whether this
// caller won the claim (and therefore owns the write-back).
func (p *Pool) clearDirty(f *Frame) bool {
	if f.dirty.CompareAndSwap(true, false) {
		p.ndirty.Add(-1)
		return true
	}
	return false
}

// DirtyFrames returns the number of frames with the dirty bit set, in
// O(1). The engine's checkpoint trigger polls it on every batch.
func (p *Pool) DirtyFrames() int64 { return p.ndirty.Load() }

// SetNoSteal toggles no-steal mode: dirty frames become immune to
// eviction (clock victims and EvictAll skip them), so the only path a
// dirty page takes to disk is an explicit FlushAll. A redo-only WAL
// needs exactly this — an uncommitted or unlogged page image must never
// overwrite the checkpointed one, and with no-steal the on-disk state
// between checkpoints is always the last checkpoint's.
func (p *Pool) SetNoSteal(v bool) { p.noSteal.Store(v) }

// frameFor returns a detached frame to install into, in order of
// preference: the free list, a frame not yet made (capacity
// permitting), or a clock victim. Caller holds p.mu.
//
// The closed check here, under p.mu, is what Close's pin count relies
// on: a frame handed out after Close looked would be pinned over
// memory Close is about to unmap.
func (p *Pool) frameFor() (*Frame, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return f, nil
	}
	if n := len(p.frames); n < p.maxCap {
		if len(p.spare) == 0 {
			p.spare = (&frameChunk{arena: p.arena}).frames[:]
		}
		f := &p.spare[0]
		p.spare = p.spare[1:]
		lo, hi := n*p.pageSize, (n+1)*p.pageSize
		f.data = p.arena.mem[lo:hi:hi]
		p.frames = append(p.frames, f)
		return f, nil
	}
	f, err := p.clockVictim()
	if err != nil {
		return nil, err
	}
	if f == nil {
		return nil, fmt.Errorf("buffer: all %d frames pinned; cannot evict", len(p.frames))
	}
	return f, nil
}

// install binds a detached frame to a page id and pins it. Caller holds
// p.mu.
func (p *Pool) install(f *Frame, id storage.PageID) {
	f.id = id
	f.pins.Store(1)
	f.ref = true
	f.dirty.Store(false)
	p.table[id] = f
}

// clockVictim sweeps the frames with the clock algorithm: a frame with
// its reference bit set gets a second chance, pinned and detached
// frames are skipped. Returns a detached frame ready for reuse, or nil
// when every frame is pinned. Caller holds p.mu.
func (p *Pool) clockVictim() (*Frame, error) {
	n := len(p.frames)
	noSteal := p.noSteal.Load()
	for pass := 0; pass < 2*n; pass++ {
		f := p.frames[p.hand]
		p.hand++
		if p.hand == n {
			p.hand = 0
		}
		if f.id == storage.InvalidPageID || f.pins.Load() > 0 {
			continue
		}
		if noSteal && f.dirty.Load() {
			// WAL mode: a dirty page may hold unlogged-to-disk state;
			// writing it back here would break the invariant that the
			// on-disk image is always the last checkpoint's. Treat it
			// like a pinned frame until the next checkpoint cleans it.
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if err := p.evict(f); err != nil {
			return nil, err
		}
		return f, nil
	}
	return nil, nil
}

// evict detaches the (unpinned) frame's page, writing it back only if
// dirty. Clean frames are dropped without I/O — this is the moment
// volatile index-cache contents disappear. Caller holds p.mu. Only a
// pool without no-steal writes a victim back here, so WAL engines
// never do I/O under the mutex.
//
// The latch-crabbing B+Tree relies on the invariant that a latched
// frame is never evicted. The pool guarantees it transitively: every
// latch holder holds a pin (callers latch only frames they fetched and
// unlatch before unpinning), eviction candidates must have a zero pin
// count, and pins cannot be acquired mid-eviction because Fetch and
// evict serialize on p.mu. The TryLock below asserts the invariant — on
// an unpinned frame it can only fail if some caller latched without
// pinning, which would corrupt whatever that latch was protecting.
func (p *Pool) evict(f *Frame) error {
	if !f.Latch.TryLock() {
		panic(fmt.Sprintf("buffer: evicting latched frame %v (latch held without a pin)", f.id))
	}
	defer f.Latch.Unlock()
	if f.dirty.Load() {
		if err := p.disk.WritePage(f.id, f.data); err != nil {
			return fmt.Errorf("buffer: write back %v: %w", f.id, err)
		}
		p.writebacks.Add(1)
		p.clearDirty(f)
	}
	delete(p.table, f.id)
	p.evictions.Add(1)
	f.id = storage.InvalidPageID
	f.ref = false
	return nil
}

// Unpin releases one pin. If dirty is true the page will be written
// back before eviction; if false, any in-memory mutations remain
// volatile (the index-cache write path). Unpin is lock-free.
//
// nblb:releases-pin
func (p *Pool) Unpin(f *Frame, dirty bool) {
	if dirty {
		p.markDirty(f)
	}
	if n := f.pins.Add(-1); n < 0 {
		panic(fmt.Sprintf("buffer: unpin of unpinned %v", f.id))
	}
}

// FlushAll writes every dirty resident page to disk. Clean pages
// (including those with volatile cache writes) are not touched.
//
// The dirty bit is claimed with a CAS *before* the write: Unpin sets it
// without the pool mutex, so clearing it after the write could erase a
// concurrent Unpin(dirty) and silently lose that mutation's write-back.
// Claiming first means a mutation landing mid-flush re-dirties the
// frame and reaches disk on the next flush or eviction.
//
// Each candidate is pinned under the pool mutex, then written under its
// frame latch (shared) with the mutex released. The pin keeps the
// frame from being evicted or rebound meanwhile; the latch keeps the
// write from racing a concurrent page mutation. Latches must not be
// awaited while holding the pool mutex: B+Tree descents fetch child
// pages (which needs the mutex) while holding parent latches, so that
// nesting would deadlock.
//
// nblb:blocking-io
func (p *Pool) FlushAll() error {
	return p.eachDirty(func(f *Frame) error {
		if !p.clearDirty(f) {
			return nil
		}
		if err := p.disk.WritePage(f.id, f.data); err != nil {
			p.markDirty(f)
			return fmt.Errorf("buffer: flush %v: %w", f.id, err)
		}
		p.writebacks.Add(1)
		return nil
	})
}

// DirtyPages calls fn with the id and a latched snapshot view of every
// dirty resident page, without clearing dirty bits — the checkpoint's
// double-write file is built from this walk before FlushAll commits the
// same set in place. fn must not retain data past the call. Pin and
// latch discipline match FlushAll.
//
// nblb:blocking-io
func (p *Pool) DirtyPages(fn func(id storage.PageID, data []byte) error) error {
	return p.eachDirty(func(f *Frame) error {
		if !f.dirty.Load() {
			return nil
		}
		return fn(f.id, f.data)
	})
}

// eachDirty calls visit for every frame that was dirty when the pool
// was looked at: candidates are pinned under the mutex and visited
// under a shared frame latch outside it. It stops at the first error.
func (p *Pool) eachDirty(visit func(f *Frame) error) error {
	var pinned []*Frame
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return ErrPoolClosed
	}
	for _, f := range p.frames {
		if f.id == storage.InvalidPageID || !f.dirty.Load() {
			continue
		}
		f.pins.Add(1)
		pinned = append(pinned, f)
	}
	p.mu.Unlock()
	for i, f := range pinned {
		f.Latch.RLock()
		err := visit(f)
		f.Latch.RUnlock()
		p.Unpin(f, false)
		if err != nil {
			for _, g := range pinned[i+1:] {
				p.Unpin(g, false)
			}
			return err
		}
	}
	return nil
}

// PinnedFrames returns the number of frames with a nonzero pin count.
// Tests use it to assert that cursors and lookups release every pin
// they take (a quiescent pool must report 0).
func (p *Pool) PinnedFrames() int {
	n := 0
	p.mu.Lock()
	for _, f := range p.frames {
		if f.pins.Load() > 0 {
			n++
		}
	}
	p.mu.Unlock()
	return n
}

// ResidentPages returns the number of pages the pool holds.
func (p *Pool) ResidentPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.table)
}

// EvictAll force-evicts every unpinned page (dirty ones are written
// back). Tests use it to simulate a cold restart, which must drop all
// volatile index-cache contents.
func (p *Pool) EvictAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return ErrPoolClosed
	}
	for _, f := range p.frames {
		if f.id == storage.InvalidPageID || f.pins.Load() > 0 {
			continue
		}
		if p.noSteal.Load() && f.dirty.Load() {
			continue // WAL mode: dirty pages leave only via FlushAll
		}
		if err := p.evict(f); err != nil {
			return err
		}
		p.free = append(p.free, f)
	}
	return nil
}

// Close returns the pool's page memory to the OS. Every later Fetch,
// NewPage, FlushAll, DirtyPages and EvictAll returns ErrPoolClosed;
// dirty pages are not flushed (the owner does that first). While any
// frame is pinned Close fails and leaves the arena mapped — a leaked
// mapping beats a fault inside whoever holds the pin — and may be
// called again once the pins are gone. Closing a closed pool is a no-op.
func (p *Pool) Close() error {
	p.closed.Store(true)
	// Every section that touches page memory checks closed under the
	// mutex PinnedFrames takes next, so a pin this count misses cannot
	// exist afterwards either.
	if n := p.PinnedFrames(); n > 0 {
		return fmt.Errorf("buffer: close with %d pinned frames; arena left mapped", n)
	}
	if p.released.CompareAndSwap(false, true) {
		p.cleanup.Stop()
		unmapArena(p.arena.mem)
	}
	return nil
}
