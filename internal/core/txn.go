package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/wal"
)

// ErrTxnDone reports a Txn used after Commit or Abort.
var ErrTxnDone = errors.New("core: transaction already finished")

// ErrTxnConflict reports first-committer-wins validation failure: a row
// this transaction staged a write against was modified by a transaction
// that committed after this one began.
var ErrTxnConflict = errors.New("core: transaction conflict")

// Txn is a multi-op snapshot transaction. Begin pins a snapshot
// timestamp; Apply stages batches (nothing is written); Query opens
// snapshot-isolated cursors that read as-of the start timestamp without
// re-validating against in-flight writers; Commit applies every staged
// op atomically under one commit timestamp and one WAL record, after a
// first-committer-wins conflict check. Abort discards the stage.
//
// Semantics and limits, deliberately explicit:
//
//   - Isolation level is snapshot isolation: reads see the last state
//     committed before Begin, writes conflict-check against commits
//     that landed since. Write skew is possible, as in any SI engine.
//   - Query does NOT see this transaction's own staged writes (no
//     read-your-own-writes); it reads the Begin snapshot.
//   - Raw Table.Apply participates in MVCC only as far as snapshots
//     need it: while any snapshot is pinned, raw INSERTS are stamped
//     with a fresh commit timestamp (so open snapshot cursors — e.g.
//     behind the server's write coalescer — never see rows that landed
//     after they began); raw updates and deletes still mutate in place
//     and are invisible to the conflict check. Mixing raw updates or
//     deletes with transactions on the same rows is unsupported.
//   - A Txn is not safe for concurrent use by multiple goroutines.
//   - Cursors from Query must be exhausted or closed before Commit or
//     Abort: finishing the transaction releases its snapshot, after
//     which the GC may unlink versions the cursor could still visit.
//
// A Txn is one object that owns its whole stage, reused across its
// Applies: the first table's side and the table list are inline, staged
// ops append straight onto their table's, the three staging sets are
// stageSets, and one arena holds every staged record, pre-image, claimed
// key and undo key until Commit or Abort returns (see ARCHITECTURE.md,
// "MVCC snapshot transactions"). BeginInto reuses all of it for the
// next transaction.
type Txn struct {
	e       *Engine
	startTS uint64
	done    bool
	nBatch  int // batches staged (for error attribution)

	tables []*txnTable // in staging order; backed by tab0 while one table stages
	tab0   [1]*txnTable
	first  txnTable // the first table's side

	claimed stageSet[*Index, claimRef]      // staged unique entry keys
	freed   stageSet[*Index, struct{}]      // unique entry keys this txn's updates/deletes release
	writes  stageSet[writeTarget, stagedAt] // staged update/delete targets
	sc      stageArena
}

// stagedAt names a staged op for error attribution: its batch, counted
// from 0 in staging order, and its position in that batch.
type stagedAt struct {
	batch, op int
}

// claimRef records which staged op claimed a unique key — for
// duplicate-key attribution in both stage-time and commit-time errors —
// and, once the commit pre-check has looked, the packed RID occupying
// the key in the tree (0 = none).
type claimRef struct {
	stagedAt
	tt       *txnTable
	pos      int // the claiming op's position in tt.ops
	occupant uint64
}

type writeTarget struct {
	t   *Table
	rid storage.RID
}

// txnOpBytes is what Apply reserves in the arena per staged op: a
// record of up to ~240 bytes, its pre-image and a few keys. A larger row
// just carves a further chunk.
const txnOpBytes = 512

// txnTable is a transaction's side of one table: the staged ops, and
// the undo log of the commit in flight — the counters it moved and
// every index-tree mutation in landing order. Heap effects need no log:
// a landed record is an op with a newRID, a stamped row is one dead at
// the commit timestamp.
type txnTable struct {
	tx  *Txn
	t   *Table
	ops []stagedOp

	delta   int64 // rows-counter delta already applied
	dead    int   // deadVersions increments already applied
	entries []entryUndo
}

// entryUndo reverses one landed index-tree mutation: restore key to the
// packed RID it held before (restore), or delete the fresh entry.
type entryUndo struct {
	ix      *Index
	key     []byte
	val     uint64
	restore bool
}

// noteEntries logs a landed index run's mutations for undo, from what
// ApplyRun reports each entry found: an if-absent entry whose key
// existed wrote nothing, anything else wrote over Prev or afresh.
func (tt *txnTable) noteEntries(ix *Index, run []btree.RunEntry) {
	tt.entries = slices.Grow(tt.entries, len(run))
	for i := range run {
		if e := &run[i]; e.Op != btree.RunInsertIfAbsent || !e.Existed {
			// The key is copied into the transaction's arena: the run's keys
			// live in the pipeline's, which is recycled before a rollback
			// would read them.
			key := append(carve(&tt.tx.sc.arena, len(e.Key), maxArena), e.Key...)
			tt.entries = append(tt.entries, entryUndo{ix: ix, key: key, val: e.Prev, restore: e.Existed})
		}
	}
}

// Begin starts a transaction reading as-of the current committed state.
// It is BeginInto on a fresh Txn.
func (e *Engine) Begin() *Txn {
	tx := new(Txn)
	e.BeginInto(tx)
	return tx
}

// BeginInto is Begin starting tx in place, so a caller that recycles its
// transactions (the server keeps a few per connection) pays for no Txn
// after the first. A finished Txn keeps the capacity of its stage — its
// arena, staged ops, undo log and staging sets, up to the bounds a
// pooled pipeline keeps — and the next transaction stages into it.
//
// The reuse rule: tx must be zero or finished (an open tx is aborted
// first), and whoever used it for the previous transaction must be done
// with it — the Txn is the new transaction from here on, and nothing the
// previous one staged, claimed or logged for undo is visible to it.
// Cursors of the previous transaction were closed before its Commit or
// Abort, as ever.
func (e *Engine) BeginInto(tx *Txn) {
	if tx.e != nil && !tx.done {
		tx.Abort()
	}
	tx.e, tx.startTS, tx.done, tx.nBatch = e, e.registerSnapshot(), false, 0
}

// StartTS returns the transaction's snapshot timestamp.
func (tx *Txn) StartTS() uint64 { return tx.startTS }

// table returns t's side of the transaction, adding it when t has none.
// A transaction touches few tables, so a scan finds it.
func (tx *Txn) table(t *Table) *txnTable {
	for _, tt := range tx.tables {
		if tt.t == t {
			return tt
		}
	}
	tt := &tx.first
	if len(tx.tables) == 0 {
		// first is empty (zero, emptied by reset, or cut back by a failed
		// Apply) and its ops and undo log keep their capacity.
		tx.tables = tx.tab0[:0]
		tt.tx, tt.t = tx, t
	} else {
		tt = &txnTable{tx: tx, t: t}
	}
	tx.tables = append(tx.tables, tt)
	return tt
}

// maxKeptOps bounds the staged ops and undo entries a finished Txn keeps
// the capacity of, as maxArena bounds its arena.
const maxKeptOps = 64

// reset empties a finished transaction's stage for the next one: every
// reference into it goes, what it grew stays (up to the bounds). Its
// arena was emptied (and poisoned) by endTrip.
func (tx *Txn) reset() {
	f := &tx.first
	clear(f.ops)
	clear(f.entries)
	ops, entries := f.ops[:0], f.entries[:0]
	if cap(ops) > maxKeptOps {
		ops = nil
	}
	if cap(entries) > maxKeptOps {
		entries = nil
	}
	tx.first = txnTable{ops: ops, entries: entries}
	tx.tables = nil
	tx.claimed.reset()
	tx.freed.reset()
	tx.writes.reset()
	if cap(tx.sc.arena) > maxArena {
		tx.sc.arena = nil
	}
	if cap(tx.sc.vals) > maxVals {
		tx.sc.vals = nil
	}
}

// Apply stages a batch against t. Nothing is written: rows encode, the
// pre-images of update/delete targets load, and unique-key claims are
// checked against the transaction's OWN staged writes — a duplicate key
// between two staged ops fails here, with Result.ErrIndex pointing at
// the offending op in THIS batch (the fix the raw pipeline cannot make:
// its ErrIndex only ever sees the durable tree). A failed Apply stages
// none of the batch. Duplicates against already-committed state are
// checked at Commit, under the commit lock.
//
// Apply keeps nothing of b: each staged row is encoded into the
// transaction's arena and staged as a view of that record, so b and its
// rows are the caller's again — to reuse or overwrite — once Apply
// returns.
func (tx *Txn) Apply(t *Table, b *Batch) (Result, error) {
	res := Result{ErrIndex: -1}
	if tx.done {
		res.Err = ErrTxnDone
		return res, res.Err
	}
	if t.engine != tx.e {
		res.Err = fmt.Errorf("core: table %q belongs to a different engine", t.name)
		return res, res.Err
	}
	if b == nil || len(b.ops) == 0 {
		return res, nil
	}

	t.mu.RLock()
	defer t.mu.RUnlock()
	// The batch stages in place. Should any op fail, everything it added
	// is cut back off: ops, set members, a table it brought in, and the
	// arena, whose carvings since the mark nothing references any more.
	nTables, sc := len(tx.tables), tx.sc
	nClaimed, nFreed, nWrites := len(tx.claimed.members), len(tx.freed.members), len(tx.writes.members)
	tt := tx.table(t)
	base := len(tt.ops)
	tt.ops = append(tt.ops, b.ops...)
	// Each op decodes one row into vals — its staged row or its pre-image
	// — and an update both.
	rows := len(b.ops)
	for i := range b.ops {
		if b.ops[i].kind == BatchUpdate {
			rows++
		}
	}
	tx.sc.reserve(len(b.ops)*txnOpBytes, rows*t.schema.NumFields())
	if i, err := tx.stage(tt, base); err != nil {
		clear(tt.ops[base:])
		tt.ops = tt.ops[:base]
		tx.claimed.truncate(nClaimed)
		tx.freed.truncate(nFreed)
		tx.writes.truncate(nWrites)
		tx.tables = tx.tables[:nTables]
		tx.sc = sc
		res.ErrIndex, res.Err = i, err
		return res, err
	}
	tx.nBatch++
	res.Applied = len(b.ops)
	return res, nil
}

// stage readies tt.ops[base:] — one batch — for Commit: each op's record
// encodes and its pre-image loads into the transaction's arena, its row
// becomes a view of that record (so the stage keeps nothing of the
// caller's), and its target and unique keys are checked against, then
// added to, the transaction's own stage. It reports the batch position
// of an op that fails.
func (tx *Txn) stage(tt *txnTable, base int) (int, error) {
	t := tt.t
	for i := base; i < len(tt.ops); i++ {
		op, at := &tt.ops[i], stagedAt{tx.nBatch, i - base}
		if op.kind != BatchInsert {
			tgt := writeTarget{t, op.rid}
			if w := tx.writes.find(tgt, nil); w != nil {
				return at.op, fmt.Errorf("core: row %v already written by op %d of batch %d in this transaction",
					op.rid, w.val.op, w.val.batch)
			}
			tx.writes.add(tgt, nil, at)
		}
		if err := t.preflight(op, &tx.sc); err != nil {
			return at.op, err
		}
		if op.kind != BatchDelete {
			var err error
			if op.row, err = tx.sc.rowView(t, op.rec); err != nil {
				return at.op, err
			}
		}
		// Unique-key accounting against the transaction's own stage.
		for _, ix := range t.indexes {
			if !ix.unique {
				continue
			}
			var oldKey, newKey []byte
			var err error
			if op.oldRow != nil {
				if oldKey, err = tx.sc.entryKey(ix, op.oldRow, op.rid); err != nil {
					return at.op, err
				}
			}
			if op.kind != BatchDelete {
				if newKey, err = tx.sc.entryKey(ix, op.row, storage.InvalidRID); err != nil {
					return at.op, err
				}
			}
			if oldKey != nil && newKey != nil && bytes.Equal(oldKey, newKey) {
				continue // key unchanged: the version chain carries it
			}
			if newKey != nil {
				if c := tx.claimed.find(ix, newKey); c != nil {
					return at.op, fmt.Errorf(
						"core: index %q: duplicate key staged by op %d of batch %d in this transaction",
						ix.name, c.val.op, c.val.batch)
				}
				tx.claimed.add(ix, newKey, claimRef{stagedAt: at, tt: tt, pos: i})
			}
			// A key stays freed even when re-claimed: the commit pre-check
			// uses the freed set to recognize that the durable occupant of
			// a claimed key is a row this transaction itself kills (the
			// conflict check has already proven nobody else touched it).
			if oldKey != nil && tx.freed.find(ix, oldKey) == nil {
				tx.freed.add(ix, oldKey, struct{}{})
			}
		}
	}
	return 0, nil
}

// Query opens a cursor over t reading as-of the transaction's start
// timestamp: a timestamp-consistent snapshot, never re-validated
// against concurrent committers. All Query options pass through
// (WithIndex, bounds, projections, filters, WithParallel...); the cache
// policy is forced to HeapOnly (cached payloads describe latest state).
// It does NOT see this transaction's own staged writes. Cursors must be
// drained or closed before Commit/Abort — finishing the transaction
// releases the snapshot that protects their versions from GC.
//
// Query is QueryInto on a fresh Cursor, except that its rows own their
// strings and bytes.
func (tx *Txn) Query(t *Table, opts ...QueryOption) (*Cursor, error) {
	c := new(Cursor)
	return c.opened(tx.query(c, t, opts, false))
}

// QueryInto is Query opening c in place, under Table.QueryInto's reuse
// and view rules: c must be zero or closed (an open c is closed first,
// a failed open leaves it closed), and a row's strings and bytes alias
// the cursor's record buffer until the next Next or Close. A snapshot
// read bypasses the cache, so every row it serves is such a view.
func (tx *Txn) QueryInto(c *Cursor, t *Table, opts ...QueryOption) error {
	_, err := c.opened(tx.query(c, t, opts, true))
	return err
}

// query reopens c with opts and view and opens it over t as-of the
// transaction's snapshot.
func (tx *Txn) query(c *Cursor, t *Table, opts []QueryOption, view bool) error {
	c.reopen(opts, view)
	if tx.done {
		return ErrTxnDone
	}
	c.cfg.pinSnapshot(tx.startTS)
	return t.query(c)
}

// Abort discards the staged writes and releases the snapshot.
func (tx *Txn) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.finish()
}

// finish ends a transaction that Commit or Abort has marked done: its
// arena dies (poisoned under PoisonScratch), its stage is emptied for a
// BeginInto, its snapshot is released, and a GC pass runs if the backlog
// calls for one.
func (tx *Txn) finish() {
	tx.sc.endTrip()
	tx.reset()
	tx.e.releaseSnapshot(tx.startTS)
	tx.e.maybeGC()
}

// Commit applies every staged op atomically: one commit timestamp, one
// WAL record (so recovery replays the transaction whole or not at all),
// and visibility flips for every reader at the instant the clock
// publishes. Returns ErrTxnConflict (wrapped) when a staged target was
// modified since Begin, or a duplicate-key error when a claimed unique
// key is held by a live committed row this transaction does not
// replace. On any failure — validation, a mid-commit heap or index
// error, a WAL append error — nothing stays applied: effects that had
// already landed are rolled back before the commit gate drops, and the
// unpublished timestamp is free for reuse. The one exception is a
// group-commit fsync failure after the clock published: the commit is
// visible in memory but may not survive a crash (the same contract as
// a raw Apply whose fsync fails).
//
// nblb:commit-entry — the audited txn commit critical section.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	tx.done = true
	e := tx.e
	defer tx.finish()
	if len(tx.tables) == 0 {
		return nil
	}

	e.txnMu.Lock()
	defer e.txnMu.Unlock()
	ts := e.clock.Load() + 1

	// First-committer-wins: every staged update/delete target must still
	// be the version this transaction read — not superseded, not deleted
	// — by any transaction that committed after our snapshot.
	for _, tt := range tx.tables {
		vs := &tt.t.vers
		vs.mu.RLock()
		for i := range tt.ops {
			op := &tt.ops[i]
			if op.kind == BatchInsert {
				continue
			}
			if m, ok := vs.m[op.rid]; ok && (m.dead != 0 || m.born > tx.startTS) {
				vs.mu.RUnlock()
				return fmt.Errorf("%w: row %v modified since the transaction began", ErrTxnConflict, op.rid)
			}
		}
		vs.mu.RUnlock()
	}

	// Claimed unique keys must not collide with live committed rows,
	// unless this transaction itself frees the key. Under txnMu this
	// verdict cannot be invalidated by another transaction; the occupant
	// it found — a dead or freed holder the new version chains to — is
	// recorded so the index stage can tell if a raw Apply (which shares
	// the gate) changed the entry since, without searching again.
	for i := range tx.claimed.members {
		m := &tx.claimed.members[i]
		ix, c := m.owner, &m.val
		v, found, err := ix.tree.Search(m.key)
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		if tx.freed.find(ix, m.key) == nil && ix.table.ridVisible(storage.UnpackRID(v), snapLatest) {
			return fmt.Errorf("core: index %q: duplicate key (op %d of batch %d)", ix.name, c.op, c.batch)
		}
		c.occupant = v
		c.tt.ops[c.pos].prev = v
	}

	// The gate is taken even without a WAL: RunGC holds it exclusively
	// and relies on it to serialize against commit effects and entry
	// upserts (checkpoints additionally rely on it for clock/meta
	// consistency).
	e.commitGate.RLock()
	payload, err := tx.commitEffects(ts)
	var lsn uint64
	if err == nil && e.wal != nil {
		if lsn, err = e.wal.Append(recTxn, payload); err == nil {
			wal.TestPoint("txn:appended")
		}
	}
	// Publish the clock before the gate drops so a checkpoint can never
	// snapshot the new versions' metadata against the old clock. On
	// error, roll the landed effects back before the gate drops instead:
	// the same gated section that made the partial state briefly
	// reachable guarantees no checkpoint or GC ever observes it, so the
	// failed commit leaves no trace and ts (never published) is safely
	// allocated again by the next committer.
	if err == nil {
		e.clock.Store(ts)
	} else if rerr := tx.rollbackEffects(ts); rerr != nil {
		err = errors.Join(err, rerr)
	}
	e.commitGate.RUnlock()
	if err != nil {
		return err
	}
	if lsn != 0 {
		if cerr := e.walCommit(lsn); cerr != nil {
			return cerr
		}
	}
	if e.wal != nil {
		e.maybeCheckpoint()
	}
	return nil
}

// testCommitFailAfter > 0 makes a commit fail with an injected error at
// its n-th landing step — test support for the rollback path. 0
// disables injection.
var testCommitFailAfter atomic.Int64

// errInjectedCommitFailure is the error TestingFailCommitAfter injects.
var errInjectedCommitFailure = errors.New("core: injected commit failure")

// commitSeam is the injection seam: a commit about to take n landing
// steps asks how many may land before the armed failure (n when none
// is armed or it lies further on).
func commitSeam(n int) int {
	v := int(testCommitFailAfter.Load())
	switch {
	case v == 0:
		return n
	case v > n:
		testCommitFailAfter.Store(int64(v - n))
		return n
	}
	testCommitFailAfter.Store(0)
	return v - 1
}

// commitEffects lands the staged writes, one trip through the write
// pipeline per table under the versioning policy (see pipeline), and
// returns the recTxn payload: the commit timestamp and each table's
// logged actions in the recBatch sub-format. The actions encode the
// transaction's FINAL, post-GC physical state — updates as
// remove-old/put-new, deletes as removals, obsolete index entries as
// deletions — so replay flattens the version history away entirely (no
// snapshot survives a crash, so recovered state needs none of it).
//
// Caller holds txnMu and commitGate shared. Each table's undo log
// records exactly what landed — on error the caller MUST run
// rollbackEffects before the gate drops. The payload is built in the
// engine's txnRec, which txnMu serialises: it stays valid until the
// caller drops txnMu, and the log copies it on Append.
func (tx *Txn) commitEffects(ts uint64) ([]byte, error) {
	e := tx.e
	p := e.getPipeline()
	defer e.putPipeline(p)
	var payload []byte
	if p.wb != nil {
		payload = binary.AppendUvarint(e.txnRec[:0], ts)
		payload = binary.AppendUvarint(payload, uint64(len(tx.tables)))
	}
	for _, tt := range tx.tables {
		p.aim(tt.t)
		p.ops, p.stamp, p.vers = tt.ops, ts, tt
		tt.t.mu.RLock()
		p.run()
		tt.t.mu.RUnlock()
		if p.res.Err != nil {
			return nil, p.res.Err
		}
		if p.wb != nil {
			payload = binary.AppendUvarint(payload, uint64(len(p.wb.payload())))
			payload = append(payload, p.wb.payload()...)
		}
	}
	if cap(payload) <= maxArena { // a huge commit's buffer is not kept
		e.txnRec = payload
	}
	return payload, nil
}

// rollbackEffects undoes a failed commit's landed effects, newest table
// first. Caller still holds txnMu and commitGate shared — the same
// section the effects landed under, so neither a checkpoint nor GC can
// observe the intermediate state, and the in-flight readers that could
// are handled below.
//
// Per table the reversal is index entries first (fresh entries deleted,
// overwritten entries restored to the version they pointed at), then
// heap rows and version metas under one exclusive vers.mu section. A
// failed commit's new version is not erased from the version store but
// tombstoned dead-at-birth ({born: ts, dead: ts, prev: tombstonePrev}):
// born == dead fails the visibility rule for every snapshot and for
// latest reads, so a heap scanner that copied the row's bytes before
// the rollback still judges it invisible — the GC tombstone argument
// exactly. Staged update/delete targets get their dead stamp cleared,
// restoring the pre-commit meta (markDead preserved born and prev); ts
// was never published, so a row dead at ts is one this commit stamped.
//
// A reversal that fails stops the engine (Engine.stop): the log has no
// record of the commit, so recovery rebuilds the state without it.
func (tx *Txn) rollbackEffects(ts uint64) error {
	e := tx.e
	for k := len(tx.tables) - 1; k >= 0; k-- {
		tt := tx.tables[k]
		t := tt.t
		t.mu.RLock()
		for j := len(tt.entries) - 1; j >= 0; j-- {
			eu := &tt.entries[j]
			var err error
			if eu.restore {
				_, err = eu.ix.tree.Insert(eu.key, eu.val)
			} else {
				_, err = eu.ix.tree.Delete(eu.key)
			}
			if err != nil {
				t.mu.RUnlock()
				return e.stop(fmt.Errorf("core: rolling back index %q of a failed commit: %w", eu.ix.name, err))
			}
			if eu.ix.cache != nil {
				eu.ix.cache.NotifyUpdate(eu.key)
			}
		}
		vs := &t.vers
		vs.mu.Lock()
		for i := range tt.ops {
			op := &tt.ops[i]
			if op.newRID.Valid() {
				// Delete-then-tombstone inside one exclusive section: a
				// scanner that copied the bytes checks the meta after this
				// lock and sees dead-at-birth; nothing chains to newRID
				// (its own prev is overwritten), so slot reuse is safe.
				if _, err := t.file.Delete(op.newRID); err != nil {
					vs.mu.Unlock()
					t.mu.RUnlock()
					return e.stop(fmt.Errorf("core: rolling back %v, a failed commit's new row: %w", op.newRID, err))
				}
				vs.set(op.newRID, versionMeta{born: ts, dead: ts, prev: tombstonePrev})
			}
			if m := vs.m[op.rid]; op.kind != BatchInsert && m.dead == ts {
				m.dead = 0
				vs.set(op.rid, m)
			}
		}
		vs.mu.Unlock()
		t.mu.RUnlock()
		t.rows.Add(-tt.delta)
		e.deadVersions.Add(int64(-tt.dead))
	}
	return nil
}
