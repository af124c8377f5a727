package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
	"repro/internal/wal"
)

// MVCC over the existing write pipeline — "no bits left behind" applied
// to time: superseded row versions keep living in the heap pages and
// index leaves they already occupy until no snapshot can read them,
// then the garbage collector hands their bytes back to the free-space
// maps.
//
// The design in one paragraph: commit timestamps come from a per-engine
// clock stamped under txnMu at WAL group-commit time. Updates are
// out-of-place — the new version is a fresh heap record, and the OLD
// record's RID becomes the "older version" pointer (a forwarding hop run
// backwards), stored in versionMeta.prev. A row
// with no versionMeta is visible to every snapshot: that is the
// pre-transactional state, so engines that never call Begin pay one
// atomic load per visibility check and nothing else. Snapshot cursors
// read as-of their start timestamp with NO validation against in-flight
// writers: a version is visible iff born ≤ snap < dead, and both fields
// are immutable once the committing writer publishes the clock.
//
// Visibility has two shapes, matching the two ways readers reach a RID:
//
//   - ridVisible: the reader already holds a concrete RID (heap scans,
//     non-unique index entries, and every latest-state read, where the
//     chain degenerates to a liveness check). Each version is its own
//     RID and will be visited directly, so no chain is ever walked —
//     walking one would double-serve.
//   - resolveVisible: the reader holds a unique-index entry under a
//     pinned snapshot (one caller: resolver.resolve, which every index
//     read path goes through). The entry always points at the NEWEST
//     version under that key; older versions are reached by hopping
//     prev pointers until one is inside the snapshot. The chain is
//     per-KEY: when a key is deleted and re-inserted, the new version's
//     prev points at the old key holder, so time travel across key
//     reuse stays correct.
//
// GC: watermark = min(active snapshot startTS), else the clock. A
// version with dead ≤ watermark is invisible to every live and future
// snapshot (future snaps start ≥ clock ≥ watermark), so it is removed
// physically by a raw delete of its RID, one write-stage trip per
// table: index entries first, then the heap row (freed space returns
// to the free-space map), then the meta, tombstoned. The trip's batch
// record is GC's redo record. While the meta exists no reader resolves
// the version as visible; after the row is gone a stale resolve hits
// storage.ErrDeleted and skips.
// Chain hops never reach a GC'd version while its meta is required:
// a hop from version N to N.prev only happens when N.born > snap, and
// N.prev.dead == N.born > snap ≥ watermark, so N.prev is not yet
// collectible.

// versionMeta is the MVCC fate of one heap record. born/dead are commit
// timestamps (0 = none); prev is the packed RID of the version this one
// superseded (0 = none).
type versionMeta struct {
	born uint64
	dead uint64
	prev uint64
}

// versionStore holds a table's version metadata. any is a monotone
// fast-path flag: once a transaction has ever touched the table,
// visibility checks must consult the map; before that they are free.
type versionStore struct {
	mu  sync.RWMutex // nblb:lock version-store
	m   map[storage.RID]versionMeta
	any atomic.Bool
}

// set installs meta for rid (caller holds mu exclusively).
func (vs *versionStore) set(rid storage.RID, m versionMeta) {
	if vs.m == nil {
		vs.m = make(map[storage.RID]versionMeta)
	}
	vs.m[rid] = m
	vs.any.Store(true)
}

// markDead stamps rid dead at ts, preserving born/prev (caller holds mu
// exclusively). Absent metas get a zero born — "existed forever".
func (vs *versionStore) markDead(rid storage.RID, ts uint64) {
	m := vs.m[rid]
	m.dead = ts
	vs.set(rid, m)
}

// forget drops the metas at rids, where a raw write without a stamp
// just placed records: a record with no meta is visible to all, as such
// a record is, and a collected version's tombstone left there would hide
// it. Dropping a tombstone here is its death by RID reuse.
func (vs *versionStore) forget(rids ...storage.RID) {
	if !vs.any.Load() {
		return
	}
	vs.mu.Lock()
	for _, rid := range rids {
		delete(vs.m, rid)
	}
	vs.mu.Unlock()
}

// sweepTombstones drops collected-version tombstones outright. ONLY
// safe when no scan can be in flight (recovery, before the engine is
// shared); at runtime tombstones die by RID reuse instead.
func (vs *versionStore) sweepTombstones() {
	vs.mu.Lock()
	for rid, m := range vs.m {
		if m.prev == tombstonePrev {
			delete(vs.m, rid)
		}
	}
	vs.mu.Unlock()
}

// snapLatest is the sentinel snapshot timestamp meaning "read latest
// committed state" — every born passes, only live versions are served.
const snapLatest = ^uint64(0)

// tombstonePrev marks a meta whose heap row GC already removed. The
// meta itself must outlive the row: a heap scan copies record bytes
// BEFORE consulting the version store, so deleting the meta with the
// row opens a window where the scan would see "no meta = visible to
// all" and serve the collected version. The retained born/dead keep it
// invisible to every snapshot instead. A tombstone dies when its RID is
// reused (the write's set() or forget() clobbers it — safe, because
// reuse requires the commitGate GC held while clearing every chain
// pointer to the slot) and is skipped by GC candidate scans and
// checkpoint manifests.
const tombstonePrev = ^uint64(0)

// testInvertVisibility deliberately inverts the born/snap comparison —
// a sabotaged engine for proving the model-checking harness detects
// visibility bugs. Only tests flip it (TestingSetInvertVisibility).
var testInvertVisibility atomic.Bool

// TestingSetInvertVisibility breaks (or restores) snapshot visibility.
// Test support only.
func TestingSetInvertVisibility(v bool) { testInvertVisibility.Store(v) }

// bornVisible is the "version born in time for this snapshot" half of
// the visibility rule, factored so the sabotage knob has one seam.
func bornVisible(born, snap uint64) bool {
	if testInvertVisibility.Load() {
		return born > snap // intentionally wrong: future versions visible, past hidden
	}
	return born <= snap
}

// ridVisible reports whether the version at rid is visible at snap.
// snap == snapLatest is the non-transactional read path: only the
// liveness (dead == 0) check applies. This is the per-RID shape: no
// chain walk (see the package comment).
func (t *Table) ridVisible(rid storage.RID, snap uint64) bool {
	vs := &t.vers
	if !vs.any.Load() {
		return true
	}
	vs.mu.RLock()
	m, ok := vs.m[rid]
	vs.mu.RUnlock()
	if !ok {
		return true
	}
	return bornVisible(m.born, snap) && (m.dead == 0 || m.dead > snap)
}

// resolveVisible resolves a unique-index entry's RID to the version
// visible at snap, walking the prev chain for snapshots that predate
// the newest version. Returns false when no version under the key is
// visible at snap.
func (t *Table) resolveVisible(rid storage.RID, snap uint64) (storage.RID, bool) {
	vs := &t.vers
	if !vs.any.Load() {
		return rid, true
	}
	vs.mu.RLock()
	defer vs.mu.RUnlock()
	for {
		m, ok := vs.m[rid]
		if !ok {
			// No meta: pre-transactional row, or a version whose meta was
			// already pruned (then the heap row is gone too and the fetch
			// will skip it via ErrDeleted).
			return rid, true
		}
		if bornVisible(m.born, snap) {
			if m.dead == 0 || m.dead > snap {
				return rid, true
			}
			// Dead before snap; anything older died even earlier.
			return storage.InvalidRID, false
		}
		if m.prev == 0 || m.prev == tombstonePrev {
			return storage.InvalidRID, false
		}
		rid = storage.UnpackRID(m.prev)
	}
}

// rawStampTS allocates a commit timestamp for a raw (non-transactional)
// Apply when any snapshot is pinned, so the batch's inserts can be
// stamped born-at-ts and stay invisible to the snapshots that predate
// them — the write coalescer folds many connections' inserts into raw
// batches, and an open snapshot cursor must not see the ones that
// landed after it began. With no snapshot open it returns 0 and the raw
// path stays meta-free: absent meta means visible-to-all, which is
// exactly right when every live and future snapshot starts at or after
// the current clock.
func (e *Engine) rawStampTS() uint64 {
	e.snapMu.Lock()
	active := len(e.snaps) > 0
	e.snapMu.Unlock()
	if !active {
		return 0
	}
	e.txnMu.Lock()
	ts := e.clock.Load() + 1
	e.clock.Store(ts)
	e.txnMu.Unlock()
	return ts
}

// registerSnapshot records a live snapshot at the current clock and
// returns its timestamp. Taken under snapMu so the GC watermark (also
// computed under snapMu) can never miss it.
func (e *Engine) registerSnapshot() uint64 {
	e.snapMu.Lock()
	ts := e.clock.Load()
	if e.snaps == nil {
		e.snaps = make(map[uint64]int)
	}
	e.snaps[ts]++
	e.snapMu.Unlock()
	return ts
}

// releaseSnapshot drops one reference to the snapshot at ts.
func (e *Engine) releaseSnapshot(ts uint64) {
	e.snapMu.Lock()
	if n := e.snaps[ts]; n <= 1 {
		delete(e.snaps, ts)
	} else {
		e.snaps[ts] = n - 1
	}
	e.snapMu.Unlock()
}

// gcWatermark is the oldest timestamp any live snapshot reads at; with
// no snapshots open it is the clock itself. Versions dead at or before
// the watermark are invisible to every live and future reader.
func (e *Engine) gcWatermark() uint64 {
	e.snapMu.Lock()
	w := e.clock.Load()
	for ts := range e.snaps {
		if ts < w {
			w = ts
		}
	}
	e.snapMu.Unlock()
	return w
}

// gcDeadThreshold is how far the dead-version backlog must grow past
// what the last GC pass left behind before a commit or snapshot release
// triggers the next pass opportunistically.
const gcDeadThreshold = 256

// maybeGC runs a GC pass once the dead-version backlog has grown by
// gcDeadThreshold since the last pass ended. Called after commits and
// snapshot releases. Counting from what the last pass left, not from
// zero, keeps passes proportional to new dead versions: a snapshot held
// open pins the backlog above any fixed bar, and a bar on the backlog
// itself would then run a whole-map pass, the commit gate held
// exclusively, after every later commit.
func (e *Engine) maybeGC() {
	if e.deadVersions.Load()-e.gcFloor.Load() >= gcDeadThreshold {
		e.RunGC()
	}
}

// RunGC runs one garbage-collection pass: every version dead at or
// before the current watermark is unlinked (see the package comment),
// and metas of watermark-old live versions with no chain are dropped so
// the map tracks only rows whose fate is still in question. It returns
// the number of versions physically removed.
//
// The pass holds commitGate exclusively: no Apply, txn commit, or
// checkpoint runs concurrently, so no insert can reuse a freed slot
// before the pass has cleared every chain pointer to it; readers still
// run. Each table's trip appends its record under the gate.
//
// nblb:commit-entry — the pass appends its records under the gate.
func (e *Engine) RunGC() int {
	watermark := e.gcWatermark()
	e.commitGate.Lock()
	defer e.commitGate.Unlock()

	e.mu.RLock()
	tables := make([]*Table, 0, len(e.tables))
	for _, t := range e.tables {
		tables = append(tables, t)
	}
	e.mu.RUnlock()

	removed := 0
	for _, t := range tables {
		removed += t.gcLocked(watermark)
	}
	// Every backlog move happens under the gate, so the floor is exact.
	e.gcFloor.Store(e.deadVersions.Add(int64(-removed)))
	e.gcPasses.Add(1)
	return removed
}

// gcLocked collects the table's dead-at-watermark versions in one raw
// trip of deletes of their RIDs, and returns how many it collected.
// Caller holds the engine's commitGate exclusively.
func (t *Table) gcLocked(watermark uint64) int {
	vs := &t.vers
	if !vs.any.Load() {
		return 0
	}
	e := t.engine
	p := e.getPipeline()
	defer e.putPipeline(p)
	p.aim(t)
	vs.mu.Lock()
	for rid, m := range vs.m {
		switch {
		case m.prev == tombstonePrev:
			// Already collected; dies on RID reuse.
		case m.dead != 0 && m.dead <= watermark:
			p.buf = append(p.buf, stagedOp{kind: BatchDelete, rid: rid})
		case m.dead == 0 && m.born <= watermark:
			// Live and visible to everyone forever: meta is pure overhead.
			// (Deleting it is safe even against a scanner mid-step: absent
			// meta means visible-to-all, which is exactly this row's fate.)
			delete(vs.m, rid)
		}
	}
	vs.mu.Unlock()
	if len(p.buf) == 0 {
		return 0
	}
	p.ops = p.buf
	t.mu.RLock()
	p.run()
	// Crash-matrix point: the trip's effects have landed in the pool,
	// its record is not appended. Recovery redoes the pass.
	wal.TestPoint("gc:unlinked")
	p.appendRecord()
	t.mu.RUnlock()
	if p.res.Err != nil && p.res.ErrIndex == -1 {
		// An index run or the append failed, and a pass has no caller to
		// report to: stop the engine, and recovery redoes the pass.
		_ = e.stop(p.res.Err)
		return 0
	}
	// The metas are NOT deleted but tombstoned, so scanners that copied
	// a row before it was freed still see it as dead. A row already gone
	// counts as collected: a crash between checkpointed pages and the
	// manifest can leave a meta for it. No OpErrs: every op applied.
	gone := make(map[uint64]struct{}, len(p.ops))
	vs.mu.Lock()
	defer vs.mu.Unlock()
	for i := range p.ops {
		rid, errs := p.ops[i].rid, p.res.OpErrs
		if len(errs) == 0 || errs[i] == nil || errors.Is(errs[i], storage.ErrDeleted) {
			m := vs.m[rid]
			m.prev = tombstonePrev
			vs.m[rid] = m
			gone[rid.Pack()] = struct{}{}
		}
	}
	// Clear prev pointers left dangling at collected versions. A hop to
	// a collected version could only come from a snapshot older than the
	// watermark — impossible for any live or future reader — so dropping
	// the pointer changes no visible resolution. It is REQUIRED, not
	// just tidy: the collected version's heap slot is about to be
	// reusable, and a later insert landing on the same RID would
	// otherwise splice an unrelated row (or a cycle) into this chain.
	// commitGate is held exclusively here, so every dangling prev is
	// cleared before any insert can reuse the slot.
	for rid, m := range vs.m {
		if _, dangling := gone[m.prev]; dangling {
			m.prev = 0
			vs.m[rid] = m
		}
	}
	return len(gone)
}
