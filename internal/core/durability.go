package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wal"
)

// SyncPolicy selects when an acked write is on stable storage.
type SyncPolicy int

const (
	// SyncGroupCommit (the default) makes every Apply durable before it
	// returns, coalescing concurrent committers into one fsync: the
	// first becomes the group leader and syncs on behalf of everyone
	// whose record it covers. Latency of a lone writer matches
	// SyncAlways; throughput under concurrency approaches SyncNone.
	SyncGroupCommit SyncPolicy = iota
	// SyncAlways fsyncs the log on every Apply, no coalescing.
	SyncAlways
	// SyncNone appends to the log but never fsyncs on the commit path;
	// the log reaches disk at checkpoints (and at the OS's leisure). A
	// crash can lose the tail of acked writes, but never corrupts: the
	// per-batch prefix-atomicity of recovery still holds.
	SyncNone
)

// Checkpoint forces a fuzzy checkpoint: every committed effect is
// flushed to the main database file, the catalog manifest is rewritten,
// and the WAL is truncated to the new checkpoint record. Without a WAL
// it degrades to flushing dirty pages.
//
// The checkpoint is "fuzzy" in the classic sense — concurrent Applies
// keep running while the dirty-page set is discovered; only the final
// snapshot+flush holds the commit gate exclusively.
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return e.pool.FlushAll()
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return e.checkpointLocked()
}

// checkpointLocked runs one checkpoint. Caller holds e.ckptMu.
//
// Sequence (the order is the correctness argument):
//
//  1. Append a checkpoint-begin record; its LSN B is the new replay
//     horizon. Records before B will have every effect captured below;
//     records at/after B survive truncation and replay idempotently.
//  2. Under the commit gate (exclusive — no Apply holds a record
//     half-appended): sync the WAL, snapshot the catalog, and stream
//     every dirty page image plus the new manifest into the
//     double-write file. Its final fsync is the checkpoint's atomic
//     commit point.
//  3. Flush the dirty pages in place and sync the database file. A
//     crash anywhere in here is repaired from the double-write file.
//  4. Install the manifest (atomic rename), log checkpoint-end, drop
//     the WAL prefix before B, and remove the double-write file.
//
// nblb:commit-entry — checkpoints hold the gate exclusively across I/O
// by design.
func (e *Engine) checkpointLocked() error {
	beginLSN, err := e.wal.Append(recCheckpointBegin, nil)
	if err != nil {
		return err
	}
	wal.TestPoint("ckpt:begin")
	e.commitGate.Lock()
	if err := e.wal.Sync(); err != nil {
		e.commitGate.Unlock()
		return err
	}
	m := e.snapshotManifest(beginLSN)
	dw, err := newDWWriter(e.dwPath, m)
	if err != nil {
		e.commitGate.Unlock()
		return err
	}
	if err := e.pool.DirtyPages(dw.addPage); err != nil {
		e.commitGate.Unlock()
		return dw.abort(err)
	}
	if err := dw.commit(); err != nil {
		e.commitGate.Unlock()
		return err
	}
	if err := e.pool.FlushAll(); err != nil {
		e.commitGate.Unlock()
		return err
	}
	if err := e.disk.Sync(); err != nil {
		e.commitGate.Unlock()
		return err
	}
	e.commitGate.Unlock()
	wal.TestPoint("ckpt:flushed")
	if err := writeManifestAtomic(e.manifestPath, m); err != nil {
		return err
	}
	wal.TestPoint("ckpt:manifest")
	if _, err := e.wal.Append(recCheckpointEnd, encodeCheckpointEnd(beginLSN)); err != nil {
		return err
	}
	if err := e.wal.Sync(); err != nil {
		return err
	}
	if err := e.wal.TruncateTo(beginLSN); err != nil {
		return err
	}
	wal.TestPoint("ckpt:truncated")
	os.Remove(e.dwPath)
	return nil
}

// snapshotManifest captures the catalog as of checkpoint-begin LSN B.
// Caller holds the commit gate exclusively, so table and index shapes
// are stable.
func (e *Engine) snapshotManifest(beginLSN uint64) *manifest {
	m := &manifest{
		Magic:         manifestMagic,
		Version:       manifestVersion,
		CheckpointLSN: beginLSN,
		NumPages:      e.disk.NumPages(),
		Clock:         e.clock.Load(),
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := e.tables[n]
		t.mu.RLock()
		mt := manifestTable{
			Name:             t.name,
			Fields:           manifestFields(t.schema),
			Rows:             t.rows.Load(),
			AppendOnly:       t.cfg.appendOnly,
			HeapFillFactor:   t.cfg.heapFillFactor,
			HeapInsertShards: t.file.InsertShards(),
		}
		for _, id := range t.file.Pages() {
			mt.HeapPages = append(mt.HeapPages, uint64(id))
		}
		if l := t.schema.Packed(); l != nil {
			mt.Layout = l.Spec()
		}
		t.vers.mu.RLock()
		for rid, vm := range t.vers.m {
			if vm.prev == tombstonePrev {
				continue // physically collected; only in-flight scanners need it
			}
			mt.Versions = append(mt.Versions, manifestVer{
				RID: rid.Pack(), Born: vm.born, Dead: vm.dead, Prev: vm.prev,
			})
		}
		t.vers.mu.RUnlock()
		sort.Slice(mt.Versions, func(i, j int) bool { return mt.Versions[i].RID < mt.Versions[j].RID })
		ixNames := make([]string, 0, len(t.indexes))
		for n := range t.indexes {
			ixNames = append(ixNames, n)
		}
		sort.Strings(ixNames)
		for _, iname := range ixNames {
			ix := t.indexes[iname]
			mi := manifestIndex{
				Name:         ix.name,
				KeyFields:    ix.KeyFieldNames(),
				NonUnique:    !ix.unique,
				CachedFields: ix.cfg.cachedFields,
				BucketN:      ix.cfg.bucketN,
				PredLogLimit: ix.cfg.predLogLimit,
				CacheSeed:    ix.cfg.cacheSeed,
				FillFactor:   ix.cfg.fillFactor,
				Root:         uint64(ix.tree.Root()),
				Height:       ix.tree.Height(),
				NumKeys:      ix.tree.Len(),
			}
			if ix.cache != nil {
				mi.CacheCSN = ix.cache.CSN()
			}
			mt.Indexes = append(mt.Indexes, mi)
		}
		t.mu.RUnlock()
		m.Tables = append(m.Tables, mt)
	}
	return m
}

func manifestFields(s *tuple.Schema) []manifestField {
	fs := s.Fields()
	out := make([]manifestField, len(fs))
	for i, f := range fs {
		out[i] = manifestField{Name: f.Name, Kind: uint8(f.Kind), Size: f.Size}
	}
	return out
}

func fieldsFromManifest(mfs []manifestField) []tuple.Field {
	out := make([]tuple.Field, len(mfs))
	for i, f := range mfs {
		out[i] = tuple.Field{Name: f.Name, Kind: tuple.Kind(f.Kind), Size: f.Size}
	}
	return out
}

// maybeCheckpoint runs a checkpoint when the WAL has grown past the
// configured budget or dirty pages crowd the (no-steal) buffer pool.
// Non-blocking: if a checkpoint is already running, the caller moves
// on. Errors are swallowed here — the next Checkpoint (Close retries
// one) surfaces persistent failures.
func (e *Engine) maybeCheckpoint() {
	if e.wal == nil {
		return
	}
	if !e.checkpointDue() {
		return
	}
	if !e.ckptMu.TryLock() {
		return
	}
	defer e.ckptMu.Unlock()
	if !e.checkpointDue() {
		return
	}
	_ = e.checkpointLocked()
}

func (e *Engine) checkpointDue() bool {
	return e.wal.Size() >= e.ckptBytes ||
		e.pool.DirtyFrames() > int64(e.pool.Capacity())/2
}

// walCommit makes the record at lsn durable per the engine's policy.
func (e *Engine) walCommit(lsn uint64) error {
	switch e.syncPolicy {
	case SyncAlways:
		return e.wal.Sync()
	case SyncNone:
		return nil
	default:
		return e.wal.Commit(lsn)
	}
}

// WALStats reports the log's append/fsync counters (zero without WAL).
// The write-scaling benchmark derives ops-per-fsync from it.
func (e *Engine) WALStats() wal.Stats {
	if e.wal == nil {
		return wal.Stats{}
	}
	return e.wal.Stats()
}

// recover brings a WAL engine to a consistent state on open: repair a
// torn checkpoint from the double-write file if one committed, rebuild
// the catalog from the manifest, replay the WAL suffix, and cut a fresh
// checkpoint so the next open starts clean. Runs single-threaded before
// the engine is published; it takes no locks.
func (e *Engine) recover() error {
	// A complete double-write file means a checkpoint committed but may
	// not have finished flushing in place: re-apply its page images
	// (idempotent) and install its manifest. A torn one is discarded —
	// the no-steal policy guarantees the main file still holds exactly
	// the previous checkpoint's images.
	if m, pages, ok := readDW(e.dwPath, e.disk.PageSize()); ok {
		var maxID uint64
		for _, p := range pages {
			if uint64(p.id) >= maxID {
				maxID = uint64(p.id) + 1
			}
		}
		if err := e.extendDisk(maxID); err != nil {
			return err
		}
		for _, p := range pages {
			if err := e.disk.WritePage(p.id, p.data); err != nil {
				return err
			}
		}
		if err := e.disk.Sync(); err != nil {
			return err
		}
		if err := writeManifestAtomic(e.manifestPath, m); err != nil {
			return err
		}
	}
	os.Remove(e.dwPath)

	l, err := wal.Open(e.walPath)
	if err != nil {
		return err
	}
	e.wal = l

	m, err := loadManifest(e.manifestPath)
	if err != nil {
		return err
	}
	var startLSN uint64
	if m != nil {
		startLSN = m.CheckpointLSN
		e.clock.Store(m.Clock)
		// The crash may have happened before lately-allocated pages were
		// flushed; a FileDisk then reports fewer pages than the
		// checkpoint knew. Re-extend so manifest page ids resolve.
		if err := e.extendDisk(m.NumPages); err != nil {
			return err
		}
		for i := range m.Tables {
			if err := e.rebuildTable(&m.Tables[i], m.Version); err != nil {
				return err
			}
		}
	}

	// Pass 1: pre-extend the disk past every heap page the log suffix
	// references. Replay-time allocations (index splits, index builds)
	// then land beyond the logged RIDs instead of colliding with them.
	var maxHeapPage uint64
	notePage := func(id storage.PageID) {
		if uint64(id) >= maxHeapPage {
			maxHeapPage = uint64(id) + 1
		}
	}
	noteBatchPages := func(payload []byte) error {
		_, actions, derr := decodeBatch(payload)
		if derr != nil {
			return derr
		}
		for _, a := range actions {
			switch a.kind {
			case actPut:
				notePage(a.rid.Page)
				notePage(a.newRID.Page)
			case actDel:
				notePage(a.rid.Page)
			}
		}
		return nil
	}
	err = e.wal.Replay(startLSN, func(_ uint64, typ uint8, payload []byte) error {
		switch typ {
		case recBatch:
			return noteBatchPages(payload)
		case recTxn:
			_, subs, derr := decodeTxn(payload)
			if derr != nil {
				return derr
			}
			for _, sub := range subs {
				if err := noteBatchPages(sub); err != nil {
					return err
				}
			}
			return nil
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := e.extendDisk(maxHeapPage); err != nil {
		return err
	}

	// Pass 2: redo.
	replayed := 0
	err = e.wal.Replay(startLSN, func(_ uint64, typ uint8, payload []byte) error {
		if typ != recCheckpointBegin && typ != recCheckpointEnd {
			replayed++
		}
		return e.redoRecord(typ, payload)
	})
	if err != nil {
		return err
	}
	for _, t := range e.tables {
		if err := t.file.FinishRedo(t.redoMoved); err != nil {
			return err
		}
	}

	// No snapshot survives a crash, so no version history needs to
	// either: a full GC pass at watermark = clock (nothing registered,
	// so the watermark IS the clock) flattens every dead version a
	// checkpoint carried across — the physical rows replay could not
	// know about. Replayed recTxn records are already flat; GC's
	// ErrDeleted path prunes their leftover manifest metas.
	anyVersions := false
	for _, t := range e.tables {
		if t.vers.any.Load() {
			anyVersions = true
			break
		}
	}
	if anyVersions {
		wal.TestPoint("gc:recovery")
		e.RunGC()
		// Nothing is scanning during recovery, so the tombstones the GC
		// pass just left can be dropped immediately.
		for _, t := range e.tables {
			t.vers.sweepTombstones()
		}
	}

	if replayed > 0 {
		// Replay is physical and idempotent, so row deltas were not
		// tracked; recount from the heaps. Post-GC, live heap records
		// and logical rows coincide (every dead version was at or below
		// the watermark and is now gone).
		for _, t := range e.tables {
			st, serr := t.file.Stats()
			if serr != nil {
				return serr
			}
			t.rows.Store(int64(st.LiveRecords))
		}
	}
	if replayed > 0 || m == nil || anyVersions {
		// Terminal checkpoint: the replayed (and GC-flattened) state
		// becomes the new base image, and the WAL shrinks back to a
		// begin record.
		if err := e.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// extendDisk allocates zeroed pages until the disk holds at least n.
func (e *Engine) extendDisk(n uint64) error {
	for e.disk.NumPages() < n {
		if _, err := e.disk.Allocate(); err != nil {
			return err
		}
	}
	return nil
}

// redoRecord applies one WAL record during recovery. Every redo is
// idempotent and tolerant of already-done work: the replay horizon
// deliberately overlaps the checkpoint image.
func (e *Engine) redoRecord(typ uint8, payload []byte) error {
	switch typ {
	case recCheckpointBegin, recCheckpointEnd:
		return nil
	case recCreateTable:
		var d ddlCreateTable
		if err := json.Unmarshal(payload, &d); err != nil {
			return fmt.Errorf("core: redo create table: %w", err)
		}
		if _, ok := e.tables[d.Name]; ok {
			return nil // effects already in the checkpoint image
		}
		return e.replayCreateTable(&d)
	case recCreateIndex:
		var d ddlCreateIndex
		if err := json.Unmarshal(payload, &d); err != nil {
			return fmt.Errorf("core: redo create index: %w", err)
		}
		t, ok := e.tables[d.Table]
		if !ok {
			return nil // table dropped later in the log
		}
		if _, ok := t.indexes[d.Name]; ok {
			return nil
		}
		return t.replayCreateIndex(&d)
	case recDropTable:
		delete(e.tables, string(payload))
		return nil
	case recAdoptLayout, recAdoptStrings:
		var d ddlAdoptLayout
		if err := json.Unmarshal(payload, &d); err != nil {
			return fmt.Errorf("core: redo adopt layout: %w", err)
		}
		t, ok := e.tables[d.Table]
		if !ok || t.schema.Packed() != nil {
			return nil // dropped later in the log, or adopted in the checkpoint's manifest
		}
		return t.adoptSpec(d.Layout, typ == recAdoptStrings)
	case recBatch:
		return e.redoBatch(payload)
	case recTxn:
		// A committed transaction, replayed whole and flattened: the
		// record encodes its post-GC state (updates as remove-old/put-new,
		// obsolete entries as deletions), so no version metadata survives
		// recovery — correctly, since no snapshot does either. The clock
		// advances past the commit timestamp so future commits never
		// reuse it. Uncommitted transactions never reached the log at
		// all: staging is purely in-memory.
		ts, subs, err := decodeTxn(payload)
		if err != nil {
			return err
		}
		if ts > e.clock.Load() {
			e.clock.Store(ts)
		}
		for _, sub := range subs {
			if err := e.redoBatch(sub); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("core: unknown wal record type %d", typ)
	}
}

// redoBatch replays one recBatch-format payload (a raw Apply's record,
// or one table's slice of a recTxn record): its heap actions, then its
// index runs. A run's delete replays only once the heap says its entry
// is dead (redoKeeps).
func (e *Engine) redoBatch(payload []byte) error {
	table, actions, err := decodeBatch(payload)
	if err != nil {
		return err
	}
	t, ok := e.tables[table]
	if !ok {
		return nil // table dropped later in the log
	}
	for i := range actions {
		a := &actions[i]
		switch a.kind {
		case actPut:
			switch {
			case a.rid == a.newRID:
				err = t.file.RedoPut(a.rid, a.rec)
			case relocated(a.rid, a.newRID):
				// The pre-image's slot died.
				if err = t.file.RedoDelete(a.rid, a.sum); err == nil {
					err = t.file.RedoInsert(a.newRID, a.rec)
				}
			default:
				err = t.file.RedoInsert(a.newRID, a.rec)
			}
		case actDel:
			err = t.file.RedoDelete(a.rid, a.sum)
		}
		if err != nil {
			return err
		}
	}
	for i := range actions {
		a := &actions[i]
		if a.kind != actIdx {
			continue
		}
		ix, ok := t.indexes[a.index]
		if !ok {
			continue // dropped with a later table rebuild
		}
		run := a.entries[:0]
		for _, en := range a.entries {
			if en.Op == btree.RunDelete {
				v, found, err := ix.tree.Search(en.Key)
				if err != nil {
					return err
				}
				if !found || t.redoKeeps(ix, storage.UnpackRID(v), en.Key) {
					continue
				}
			}
			run = append(run, en)
		}
		if _, err := ix.tree.ApplyRun(run); err != nil {
			return err
		}
	}
	return nil
}

// redoKeeps reports whether the record redo has for rid so far carries
// key in ix. A replayed delete of that entry is then an Apply's whose
// log record landed after that of the Apply that reused its slot, or
// one the checkpoint image already holds the reuse of: the entry is the
// later row's and stays.
func (t *Table) redoKeeps(ix *Index, rid storage.RID, key []byte) bool {
	rec, ok := t.file.RedoRecord(rid)
	if !ok {
		return false
	}
	row, _, err := tuple.DecodeFields(nil, t.schema, rec, nil)
	if err != nil {
		return false
	}
	k, err := ix.appendEntryKey(nil, row, rid)
	return err == nil && bytes.Equal(k, key)
}

// redoMoved points the index entries of the row rec, which redo could
// not put back at from, at the RID it moved to (heap.File.FinishRedo).
// A non-unique entry at from stays if the row still in that slot has
// the same key.
func (t *Table) redoMoved(from, to storage.RID, rec []byte) error {
	row, _, err := tuple.DecodeFields(nil, t.schema, rec, nil)
	if err != nil {
		return fmt.Errorf("core: redo moving %v: %w", from, err)
	}
	t.vers.forget(to)
	for _, ix := range t.indexes {
		old, err := ix.appendEntryKey(nil, row, from)
		if err != nil {
			return err
		}
		if !ix.unique && !t.redoKeeps(ix, from, old) { // the RID is part of the key
			if _, err := ix.tree.ApplyRun([]btree.RunEntry{{Key: old, Op: btree.RunDelete}}); err != nil {
				return err
			}
		}
		key, err := ix.appendEntryKey(nil, row, to)
		if err != nil {
			return err
		}
		if _, err := ix.tree.ApplyRun([]btree.RunEntry{{Key: key, Value: to.Pack(), Op: btree.RunUpsert}}); err != nil {
			return err
		}
		if ix.cache != nil {
			ix.cache.NotifyUpdate(key)
		}
	}
	return nil
}

// replayCreateTable redoes a create-table record: same construction as
// CreateTable, minus validation already done originally and minus
// logging. The shard count in the record is resolved, so the rebuilt
// heap has the original's shape regardless of this process's GOMAXPROCS.
func (e *Engine) replayCreateTable(d *ddlCreateTable) error {
	schema, err := tuple.NewSchema(fieldsFromManifest(d.Fields)...)
	if err != nil {
		return fmt.Errorf("core: redo create table %q: %w", d.Name, err)
	}
	cfg := tableConfig{
		appendOnly:       d.AppendOnly,
		heapFillFactor:   d.HeapFillFactor,
		heapInsertShards: d.HeapInsertShards,
	}
	t, err := buildTable(e, d.Name, schema, cfg)
	if err != nil {
		return err
	}
	e.tables[d.Name] = t
	return nil
}

// replayCreateIndex redoes a create-index record against the replayed
// table state — the same rows the original build saw, so the resulting
// tree is logically identical (later index runs in the log apply by
// key, not by page, so physical layout differences are harmless).
func (t *Table) replayCreateIndex(d *ddlCreateIndex) error {
	cfg := indexConfig{
		cachedFields: d.CachedFields,
		bucketN:      d.BucketN,
		predLogLimit: d.PredLogLimit,
		cacheSeed:    d.CacheSeed,
		fillFactor:   d.FillFactor,
		nonUnique:    d.NonUnique,
	}
	ix, err := t.newIndexShell(d.Name, d.KeyFields, cfg)
	if err != nil {
		return fmt.Errorf("core: redo create index %q: %w", d.Name, err)
	}
	if err := ix.build(cfg.fillFactor); err != nil {
		return err
	}
	t.indexes[d.Name] = ix
	return nil
}

// rebuildTable reopens a table from its manifest entry: the heap over
// its recorded pages, each index over its recorded root. Index caches
// restart cold with their CSN seeded past the checkpoint's, so any
// cache payload persisted in a leaf before the crash can never be
// served against a fresh predicate log.
func (e *Engine) rebuildTable(mt *manifestTable, version int) error {
	schema, err := tuple.NewSchema(fieldsFromManifest(mt.Fields)...)
	if err != nil {
		return fmt.Errorf("core: manifest table %q: %w", mt.Name, err)
	}
	cfg := tableConfig{
		appendOnly:       mt.AppendOnly,
		heapFillFactor:   mt.HeapFillFactor,
		heapInsertShards: mt.HeapInsertShards,
	}
	var hopts []heap.Option
	if cfg.appendOnly {
		hopts = append(hopts, heap.AppendOnly())
	}
	if cfg.heapFillFactor != 0 {
		hopts = append(hopts, heap.WithFillFactor(cfg.heapFillFactor))
	}
	if cfg.heapInsertShards > 0 {
		hopts = append(hopts, heap.WithInsertShards(cfg.heapInsertShards))
	}
	pages := make([]storage.PageID, len(mt.HeapPages))
	for i, id := range mt.HeapPages {
		pages[i] = storage.PageID(id)
	}
	f, err := heap.Open(e.pool, pages, hopts...)
	if err != nil {
		return fmt.Errorf("core: reopening heap for %q: %w", mt.Name, err)
	}
	t := &Table{
		engine:  e,
		name:    mt.Name,
		schema:  schema,
		file:    f,
		cfg:     cfg,
		indexes: make(map[string]*Index),
	}
	t.rows.Store(mt.Rows)
	if mt.Layout != nil {
		if err := t.adoptSpec(mt.Layout, version > manifestNoStrings); err != nil {
			return fmt.Errorf("core: manifest table %q: %w", mt.Name, err)
		}
	}
	for _, v := range mt.Versions {
		t.vers.set(storage.UnpackRID(v.RID), versionMeta{born: v.Born, dead: v.Dead, prev: v.Prev})
		if v.Dead != 0 {
			e.deadVersions.Add(1)
		}
	}
	for i := range mt.Indexes {
		mi := &mt.Indexes[i]
		icfg := indexConfig{
			cachedFields: mi.CachedFields,
			bucketN:      mi.BucketN,
			predLogLimit: mi.PredLogLimit,
			cacheSeed:    mi.CacheSeed,
			fillFactor:   mi.FillFactor,
			nonUnique:    mi.NonUnique,
		}
		ix, err := t.newIndexShell(mi.Name, mi.KeyFields, icfg)
		if err != nil {
			return fmt.Errorf("core: manifest index %q on %q: %w", mi.Name, mt.Name, err)
		}
		ix.tree = btree.Open(e.pool, storage.PageID(mi.Root), mi.Height, mi.NumKeys)
		if ix.cache != nil {
			ix.cache.SeedCSN(mi.CacheCSN + 1)
		}
		t.indexes[mi.Name] = ix
	}
	e.tables[mt.Name] = t
	return nil
}
