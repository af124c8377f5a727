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
// The pool is sharded: page ids hash to one of a power-of-two number of
// shards, each with its own frame table, clock hand, free list, and
// mutex, so concurrent fetches of unrelated pages never contend. Total
// capacity is accounted globally — a hot shard may hold more frames
// than an idle one, and a shard whose frames are all pinned steals a
// victim from a sibling rather than failing. Unpin is lock-free (atomic
// pin count and dirty bit), which matters because every page access
// pays it.
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
// pins and dirty are atomic so Unpin never takes a shard lock; the
// clock reference bit and id are only touched under the owning shard's
// mutex (a frame with pins > 0 is never evicted or re-bound, so reading
// id from a pinned frame is safe without it).
type Frame struct {
	id   storage.PageID
	data []byte
	slot int // index within the owning shard's frames slice

	pins  atomic.Int32
	dirty atomic.Bool
	ref   bool // clock reference bit; shard lock only

	// Latch guards the frame's data. The buffer pool hands out frames
	// without holding it; callers latch around their accesses. Cache
	// writes use Latch.TryLock: §2.1.3 has them give up when the latch
	// is not immediately available.
	//
	// Invariant: a caller may only hold the latch while holding a pin,
	// and must release the latch before the pin. Eviction asserts this
	// (see shard.evict) — it is what lets the latch-crabbing B+Tree
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

// Pool is a buffer pool of fixed total capacity, sharded by page id.
//
// Invariants every caller can rely on (and must preserve):
//
//  1. Pin balance: every Fetch/NewPage must be matched by exactly one
//     Unpin. A frame with pins > 0 is never evicted or rebound, so a
//     pinned frame's ID and Data remain valid without any lock.
//  2. Latched ⇒ pinned: a caller may only hold a frame's Latch while
//     holding a pin on it, and must release the Latch before the final
//     Unpin. Together with (1) this means a latched frame is immune to
//     eviction; shard.evict asserts it (panic on a latched victim).
//  3. Latch/mutex order: pool internals never wait on a frame Latch
//     while holding a shard mutex (callers fetch pages — which takes
//     the mutex — while holding latches on other frames, so the
//     reverse nesting would deadlock). FlushAll pins candidates under
//     the mutex and writes them back under the latch outside it.
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
	nframes  atomic.Int64 // frames allocated across all shards, ≤ maxCap
	ndirty   atomic.Int64 // frames with the dirty bit set (see markDirty)
	noSteal  atomic.Bool  // dirty frames immune to eviction (WAL mode)
	mask     uint64
	shards   []shard

	arena    *arena // frame n's data is page n of arena.mem, n < nframes
	cleanup  runtime.Cleanup
	closed   atomic.Bool // Close was called; checked under each shard's mutex
	released atomic.Bool // the arena is unmapped
}

// arena is a pool's page memory: one anonymous mapping of capacity ×
// page size. It is a heap object of its own so that the cleanup which
// unmaps mem can hang off it. The Pool and every frameChunk point at
// it, so the collector finds it unreachable only when the pool and
// every *Frame are: a finalizer on the Pool could not promise that.
type arena struct{ mem []byte }

// frameChunk is the unit a shard allocates Frame structs in. Frames are
// made as pages are first used, like the pages themselves — a slab of
// capacity frames up front would be 80 B × capacity of resident heap
// for a pool that may never fill.
type frameChunk struct {
	arena  *arena
	frames [64]Frame
}

// maxShards caps the shard count; beyond this, shard selection noise
// outweighs any contention win.
const maxShards = 64

// minFramesPerShard keeps tiny pools coarse: a pool is only split while
// each shard can expect at least this many frames, so single-digit
// capacities behave exactly like the classic single-mutex pool.
const minFramesPerShard = 8

// defaultShardCount is the largest power of two ≤ min(maxShards,
// 4·GOMAXPROCS, capacity/minFramesPerShard), and at least 1.
func defaultShardCount(capacity int) int {
	limit := 4 * runtime.GOMAXPROCS(0)
	if limit > maxShards {
		limit = maxShards
	}
	if byCap := capacity / minFramesPerShard; byCap < limit {
		limit = byCap
	}
	n := 1
	for n*2 <= limit {
		n *= 2
	}
	return n
}

// NewPool creates a pool holding up to capacity pages, with an
// automatically chosen shard count.
func NewPool(disk storage.DiskManager, capacity int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity must be at least 1, got %d", capacity)
	}
	return newPoolShards(disk, capacity, defaultShardCount(capacity))
}

// NewPoolShards creates a pool with an explicit shard count, which must
// be a power of two. Capacity is shared globally across shards; a shard
// count above the capacity merely leaves some shards borrowing frames
// from siblings. Benchmarks use shards == 1 to reproduce the classic
// single-mutex pool.
func newPoolShards(disk storage.DiskManager, capacity, shards int) (*Pool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("buffer: capacity must be at least 1, got %d", capacity)
	}
	if shards < 1 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("buffer: shard count must be a power of two, got %d", shards)
	}
	mem, err := mapArena(capacity * disk.PageSize())
	if err != nil {
		return nil, fmt.Errorf("buffer: map %d-page arena: %w", capacity, err)
	}
	p := &Pool{
		disk:     disk,
		pageSize: disk.PageSize(),
		maxCap:   capacity,
		mask:     uint64(shards - 1),
		shards:   make([]shard, shards),
		arena:    &arena{mem: mem},
	}
	// The backstop for pools nobody closes; Close stops it.
	p.cleanup = runtime.AddCleanup(p.arena, unmapArena, mem)
	perShard := capacity/shards + 1
	for i := range p.shards {
		p.shards[i].table = make(map[storage.PageID]*Frame, perShard)
	}
	return p, nil
}

// shardOf routes a page id to its shard via a Fibonacci hash of the id.
func (p *Pool) shardOf(id storage.PageID) *shard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &p.shards[(h>>33)&p.mask]
}

// Capacity returns the maximum number of resident pages.
func (p *Pool) Capacity() int { return p.maxCap }

// NumShards returns the number of shards the pool routes across.
func (p *Pool) NumShards() int { return len(p.shards) }

// Disk returns the underlying disk manager.
func (p *Pool) Disk() storage.DiskManager { return p.disk }

// Stats returns a snapshot aggregated across shards. Shards are read
// without their locks (counters are atomic), so a snapshot taken during
// concurrent traffic is approximate; quiescent snapshots are exact.
func (p *Pool) Stats() Stats {
	var st Stats
	for i := range p.shards {
		s := &p.shards[i]
		st.Hits += s.hits.Value()
		st.Misses += s.misses.Value()
		st.Evictions += s.evictions.Value()
		st.Writebacks += s.writebacks.Value()
	}
	return st
}

// ResetStats zeroes the pool counters.
func (p *Pool) ResetStats() {
	for i := range p.shards {
		s := &p.shards[i]
		s.hits.Reset()
		s.misses.Reset()
		s.evictions.Reset()
		s.writebacks.Reset()
	}
}

// Fetch pins the page into a frame, reading it from disk on a miss.
// Callers must Unpin exactly once per Fetch.
//
// nblb:acquires-pin
func (p *Pool) Fetch(id storage.PageID) (*Frame, error) {
	if id == storage.InvalidPageID {
		return nil, fmt.Errorf("buffer: fetch of invalid page id")
	}
	s := p.shardOf(id)
	s.mu.Lock()
	if p.closed.Load() {
		s.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if f, ok := s.table[id]; ok {
		f.pins.Add(1)
		f.ref = true
		s.mu.Unlock()
		s.hits.Inc()
		return f, nil
	}
	s.misses.Inc()
	f, err := p.frameFor(s) //nolint:nblb-lockorder // frameFor drops s.mu around the sibling steal; the two shard locks are never held together
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	// frameFor may have dropped s.mu to steal from a sibling; another
	// goroutine could have installed the page meanwhile.
	if g, ok := s.table[id]; ok {
		s.releaseFrame(f)
		g.pins.Add(1)
		g.ref = true
		s.mu.Unlock()
		return g, nil
	}
	if err := p.disk.ReadPage(id, f.data); err != nil {
		s.releaseFrame(f)
		s.mu.Unlock()
		return nil, err
	}
	s.install(f, id)
	s.mu.Unlock()
	return f, nil
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
	s := p.shardOf(id)
	s.mu.Lock()
	f, err := p.frameFor(s) //nolint:nblb-lockorder // frameFor drops s.mu around the sibling steal; the two shard locks are never held together
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	clear(f.data)
	s.install(f, id)
	p.markDirty(f) // a new page must eventually reach disk
	s.mu.Unlock()
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

// frameFor returns a detached frame for s to install into, in order of
// preference: s's free list, pool growth (global capacity permitting),
// a clock victim within s, or a frame stolen from a sibling shard.
// Caller holds s.mu; when stealing, s.mu is dropped and re-acquired, so
// the caller must re-check its table lookup afterwards.
//
// The closed checks here, under s.mu, are what Close's pin count relies
// on: a frame handed out after Close looked at s would be pinned over
// memory Close is about to unmap.
func (p *Pool) frameFor(s *shard) (*Frame, error) {
	if p.closed.Load() {
		return nil, ErrPoolClosed
	}
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return f, nil
	}
	for {
		n := p.nframes.Load()
		if n >= int64(p.maxCap) {
			break
		}
		if p.nframes.CompareAndSwap(n, n+1) {
			f := s.newFrame(p.arena)
			lo, hi := int(n)*p.pageSize, int(n+1)*p.pageSize
			f.data = p.arena.mem[lo:hi:hi]
			f.slot = len(s.frames)
			s.frames = append(s.frames, f)
			return f, nil
		}
	}
	f, err := s.clockVictim(p)
	if err != nil {
		return nil, err
	}
	if f != nil {
		return f, nil
	}
	// Every local frame is pinned: borrow a victim from a sibling. The
	// two shard locks are never held together (no ordering, no deadlock).
	s.mu.Unlock()
	f, err = p.steal(s)
	s.mu.Lock()
	if err != nil {
		return nil, err
	}
	f.slot = len(s.frames)
	s.frames = append(s.frames, f)
	if p.closed.Load() {
		s.releaseFrame(f)
		return nil, ErrPoolClosed
	}
	return f, nil
}

// steal detaches a frame from some other shard — a parked free frame
// if it has one, else a clock victim — and transfers ownership to the
// caller. Called with no shard locks held.
func (p *Pool) steal(self *shard) (*Frame, error) {
	for i := range p.shards {
		o := &p.shards[i]
		if o == self {
			continue
		}
		o.mu.Lock()
		if p.closed.Load() {
			o.mu.Unlock()
			return nil, ErrPoolClosed
		}
		var f *Frame
		var err error
		if n := len(o.free); n > 0 {
			f = o.free[n-1]
			o.free[n-1] = nil
			o.free = o.free[:n-1]
		} else {
			f, err = o.clockVictim(p)
		}
		if err == nil && f != nil {
			o.removeFrame(f)
		}
		o.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if f != nil {
			return f, nil
		}
	}
	return nil, fmt.Errorf("buffer: all %d frames pinned; cannot evict", p.nframes.Load())
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
// without the shard lock, so clearing it after the write could erase a
// concurrent Unpin(dirty) and silently lose that mutation's write-back.
// Claiming first means a mutation landing mid-flush re-dirties the
// frame and reaches disk on the next flush or eviction.
//
// Each candidate is pinned under the shard lock, then written under its
// frame latch (shared) with the shard lock released. The pin keeps the
// frame from being evicted or rebound meanwhile; the latch keeps the
// write from racing a concurrent page mutation. Latches must not be
// awaited while holding the shard mutex: B+Tree descents fetch child
// pages (which needs the mutex) while holding parent latches, so that
// nesting would deadlock.
//
// nblb:blocking-io
func (p *Pool) FlushAll() error {
	return p.eachDirty(func(s *shard, f *Frame) error {
		if !p.clearDirty(f) {
			return nil
		}
		if err := p.disk.WritePage(f.id, f.data); err != nil {
			p.markDirty(f)
			return fmt.Errorf("buffer: flush %v: %w", f.id, err)
		}
		s.writebacks.Inc()
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
	return p.eachDirty(func(_ *shard, f *Frame) error {
		if !f.dirty.Load() {
			return nil
		}
		return fn(f.id, f.data)
	})
}

// eachDirty calls visit for every frame that was dirty when its shard
// was looked at: candidates are pinned under the shard lock and visited
// under a shared frame latch outside it. It stops at the first error.
func (p *Pool) eachDirty(visit func(s *shard, f *Frame) error) error {
	var pinned []*Frame
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		if p.closed.Load() {
			s.mu.Unlock()
			return ErrPoolClosed
		}
		pinned = pinned[:0]
		for _, f := range s.frames {
			if f.id == storage.InvalidPageID || !f.dirty.Load() {
				continue
			}
			f.pins.Add(1)
			pinned = append(pinned, f)
		}
		s.mu.Unlock()
		for i, f := range pinned {
			f.Latch.RLock()
			err := visit(s, f)
			f.Latch.RUnlock()
			p.Unpin(f, false)
			if err != nil {
				for _, g := range pinned[i+1:] {
					p.Unpin(g, false)
				}
				return err
			}
		}
	}
	return nil
}

// PinnedFrames returns the number of frames with a nonzero pin count.
// Tests use it to assert that cursors and lookups release every pin
// they take (a quiescent pool must report 0).
func (p *Pool) PinnedFrames() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for _, f := range s.frames {
			if f.pins.Load() > 0 {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// ResidentPages returns the number of pages currently held across all
// shards.
func (p *Pool) ResidentPages() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += len(s.table)
		s.mu.Unlock()
	}
	return n
}

// EvictAll force-evicts every unpinned page (dirty ones are written
// back). Tests use it to simulate a cold restart, which must drop all
// volatile index-cache contents.
func (p *Pool) EvictAll() error {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		if p.closed.Load() {
			s.mu.Unlock()
			return ErrPoolClosed
		}
		for _, f := range s.frames {
			if f.id == storage.InvalidPageID || f.pins.Load() > 0 {
				continue
			}
			if p.noSteal.Load() && f.dirty.Load() {
				continue // WAL mode: dirty pages leave only via FlushAll
			}
			if err := s.evict(f, p); err != nil {
				s.mu.Unlock()
				return err
			}
			s.free = append(s.free, f)
		}
		s.mu.Unlock()
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
	// shard mutex PinnedFrames takes next, so a pin this count misses
	// cannot exist afterwards either.
	if n := p.PinnedFrames(); n > 0 {
		return fmt.Errorf("buffer: close with %d pinned frames; arena left mapped", n)
	}
	if p.released.CompareAndSwap(false, true) {
		p.cleanup.Stop()
		unmapArena(p.arena.mem)
	}
	return nil
}
