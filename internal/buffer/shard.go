package buffer

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
	"repro/internal/storage"
)

// shard owns a disjoint slice of the pool: its own page table, frame
// list, clock hand, and free list, all guarded by one mutex. Stats are
// atomic (metrics.Counter) so aggregation never takes shard locks.
type shard struct {
	mu     sync.Mutex                // nblb:lock buffer-shard
	table  map[storage.PageID]*Frame // resident pages
	frames []*Frame                  // every frame this shard owns (clock order)
	free   []*Frame                  // detached frames ready for reuse
	spare  []Frame                   // frames of the newest frameChunk not yet handed out
	hand   int                       // clock hand into frames

	hits       metrics.Counter
	misses     metrics.Counter
	evictions  metrics.Counter
	writebacks metrics.Counter
}

// newFrame returns a Frame struct no one has used, from the shard's
// current chunk or a new one. Caller holds s.mu.
func (s *shard) newFrame(a *arena) *Frame {
	if len(s.spare) == 0 {
		s.spare = (&frameChunk{arena: a}).frames[:]
	}
	f := &s.spare[0]
	s.spare = s.spare[1:]
	return f
}

// install binds a detached frame to a page id and pins it. Caller holds
// s.mu and has filled f.data.
func (s *shard) install(f *Frame, id storage.PageID) {
	f.id = id
	f.pins.Store(1)
	f.ref = true
	f.dirty.Store(false)
	s.table[id] = f
}

// releaseFrame detaches a frame (failed install or duplicate race) and
// parks it on the free list. Caller holds s.mu.
func (s *shard) releaseFrame(f *Frame) {
	f.id = storage.InvalidPageID
	f.pins.Store(0)
	f.dirty.Store(false)
	f.ref = false
	s.free = append(s.free, f)
}

// clockVictim sweeps s's frames with the clock algorithm: a frame with
// its reference bit set gets a second chance, pinned and already-
// detached frames are skipped. Returns a detached frame ready for
// reuse, or nil when every frame is pinned. Caller holds s.mu.
func (s *shard) clockVictim(p *Pool) (*Frame, error) {
	n := len(s.frames)
	if n == 0 {
		return nil, nil
	}
	noSteal := p.noSteal.Load()
	for pass := 0; pass < 2*n; pass++ {
		f := s.frames[s.hand]
		s.hand++
		if s.hand == n {
			s.hand = 0
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
		if err := s.evict(f, p); err != nil {
			return nil, err
		}
		return f, nil
	}
	return nil, nil
}

// evict detaches the (unpinned) frame's page, writing it back only if
// dirty. Clean frames are dropped without I/O — this is the moment
// volatile index-cache contents disappear. Caller holds s.mu.
//
// The latch-crabbing B+Tree relies on the invariant that a latched
// frame is never evicted. The pool guarantees it transitively: every
// latch holder holds a pin (callers latch only frames they fetched and
// unlatch before unpinning), eviction candidates must have a zero pin
// count, and pins cannot be acquired mid-eviction because Fetch and
// evict serialize on s.mu. The TryLock below asserts the invariant — on
// an unpinned frame it can only fail if some caller latched without
// pinning, which would corrupt whatever that latch was protecting.
func (s *shard) evict(f *Frame, p *Pool) error {
	if !f.Latch.TryLock() {
		panic(fmt.Sprintf("buffer: evicting latched frame %v (latch held without a pin)", f.id))
	}
	defer f.Latch.Unlock()
	if f.dirty.Load() {
		if err := p.disk.WritePage(f.id, f.data); err != nil {
			return fmt.Errorf("buffer: write back %v: %w", f.id, err)
		}
		s.writebacks.Inc()
		p.clearDirty(f)
	}
	delete(s.table, f.id)
	s.evictions.Inc()
	f.id = storage.InvalidPageID
	f.ref = false
	return nil
}

// removeFrame drops a detached frame from s's ownership (it is being
// stolen by another shard). Caller holds s.mu; f must not be on the
// free list.
func (s *shard) removeFrame(f *Frame) {
	last := len(s.frames) - 1
	moved := s.frames[last]
	s.frames[f.slot] = moved
	moved.slot = f.slot
	s.frames[last] = nil
	s.frames = s.frames[:last]
	if last == 0 {
		s.hand = 0
	} else if s.hand >= last {
		s.hand = 0
	}
}
