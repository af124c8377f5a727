package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// BatchOpKind tags one queued Batch operation.
type BatchOpKind uint8

const (
	// BatchInsert adds a new row.
	BatchInsert BatchOpKind = iota
	// BatchUpdate replaces the row at a RID.
	BatchUpdate
	// BatchDelete removes the row at a RID.
	BatchDelete
)

func (k BatchOpKind) String() string {
	return [...]string{"insert", "update", "delete"}[k]
}

// BatchOp is the public view of one queued operation (Batch.Op), enough
// for callers that post-process Apply results — e.g. pairing an
// update's target with the relocated RID Result.RIDs reports.
type BatchOp struct {
	Kind BatchOpKind
	// RID is the update/delete target (InvalidRID for inserts).
	RID storage.RID
}

// stagedOp is one write on its way through the pipeline: what a Batch
// queues, what Txn.Apply stages, and what each stage fills in as the op
// moves from pre-flight to the heap to the indexes.
type stagedOp struct {
	kind BatchOpKind
	rid  storage.RID // update/delete target
	row  tuple.Row   // insert/update: the new row (the caller's; a view of rec once a Txn stages it)

	rec    []byte      // pre-flight: the encoded new row
	oldRow tuple.Row   // pre-flight: the pre-image (update/delete)
	oldSum uint32      // pre-flight: the pre-image record's heap.RecordSum (a move's: the old copy's)
	newRID storage.RID // heap stage: where the new record landed
	// prev is the packed RID of the version this op's record chains back
	// to; only a transaction's commit pre-check sets it (0 = none).
	prev uint64
	skip bool // isolation: the op failed, keep it out of later stages
	// move marks Table.Relocate's update of a row to itself: pre-flight
	// takes the row from the pre-image, and the heap stage places a new
	// copy even where the record fits in place.
	move bool
}

// Batch accumulates mutations for Table.Apply — the write-side builder
// that is to Insert/Update/Delete what Query is to Scan. A zero Batch
// is ready to use:
//
//	var b core.Batch
//	b.Insert(row1).Insert(row2)
//	b.Update(rid, row3)
//	b.Delete(rid2)
//	res, err := tbl.Apply(&b)
//
// Rows are aliased, not copied: they must stay unchanged until Apply
// returns. A Batch is not safe for concurrent use, but many goroutines
// may Apply distinct batches to one table in parallel.
//
// Apply reorders work across ops (heap runs, key-sorted index runs), so
// ops within one batch must target distinct rows: every pre-image loads
// before any op lands. Index keys may repeat. Entries for one key apply
// in batch order, and a delete op's entries leave before any insert's
// arrive, so a batch that frees a key and re-claims it (delete + insert,
// an update moving off K followed by an insert of K) leaves every index
// exactly as the same ops applied one batch each would.
type Batch struct {
	ops []stagedOp
}

// Insert queues a row insert. Returns the batch for chaining.
func (b *Batch) Insert(row tuple.Row) *Batch {
	b.ops = append(b.ops, stagedOp{kind: BatchInsert, row: row})
	return b
}

// Update queues replacing the row at rid with row.
func (b *Batch) Update(rid storage.RID, row tuple.Row) *Batch {
	b.ops = append(b.ops, stagedOp{kind: BatchUpdate, row: row, rid: rid})
	return b
}

// Delete queues removing the row at rid.
func (b *Batch) Delete(rid storage.RID) *Batch {
	b.ops = append(b.ops, stagedOp{kind: BatchDelete, rid: rid})
	return b
}

// Len returns the number of queued ops.
func (b *Batch) Len() int { return len(b.ops) }

// Op returns the i-th queued op's kind and target.
func (b *Batch) Op(i int) BatchOp {
	op := b.ops[i]
	return BatchOp{Kind: op.kind, RID: op.rid}
}

// Reset empties the batch for reuse, keeping its capacity but no
// reference to the rows it queued.
func (b *Batch) Reset() {
	clear(b.ops)
	b.ops = b.ops[:0]
}

// ApplyOption configures Table.Apply.
type ApplyOption func(*applyConfig)

type applyConfig struct{ wantRIDs bool }

// WithResultRIDs makes Apply record each op's resulting RID in
// Result.RIDs (inserts: the new row; updates: the possibly relocated
// row; deletes: InvalidRID). Off by default — the slice is one
// allocation a fire-and-forget ingest batch does not need.
func WithResultRIDs() ApplyOption {
	return func(c *applyConfig) { c.wantRIDs = true }
}

// Result reports what one Apply did.
//
// The contract is per-op, not transactional: each op applies or fails
// on its own, and becomes visible to concurrent readers atomically per
// structure (heap row before its index entries for inserts, index
// entries removed before the heap row for deletes), so a reader never
// observes a half-applied row — but there is no all-or-nothing batch.
// An op that fails alone (a row that does not encode, a missing target,
// a duplicate unique key) is recorded in OpErrs and kept out of the
// later stages while every other op still applies; an insert that
// failed after its row landed leaves neither the row nor an index entry
// behind. A failure no op is to blame for (an I/O error inside an index
// run, a failed log append or fsync) fails every op not already failed:
// which of them landed is unknowable from above, and none is reported
// applied.
type Result struct {
	// Applied counts ops applied end to end.
	Applied int
	// ErrIndex is the batch position of the lowest failed op, -1 when
	// every op applied or the failure was not attributable to one op.
	ErrIndex int
	// Err is the lowest failed op's error or, once a failure not
	// attributable to one op has failed the batch (ErrIndex -1), that
	// failure's. Apply returns it, so a caller that checks only the
	// error still sees every failure.
	Err error
	// RIDs holds each op's resulting RID when WithResultRIDs was given.
	// Each entry is filled the moment the op's heap write lands, so on
	// a failed batch the RIDs of ops that did reach the heap are still
	// reported; an op that never ran, or an insert whose row was taken
	// back, stays InvalidRID.
	RIDs []storage.RID
	// OpErrs holds each op's error (a nil entry: the op applied). It is
	// nil or empty while every op applies, and filled — in the capacity
	// ApplyInto was handed — once one fails.
	OpErrs []error
}

// failOp records the failure of op i of an n-op batch: its error lands
// in OpErrs (sized to the batch at the first failure), Applied drops,
// and ErrIndex and Err track the lowest failed op unless a batch-level
// failure holds them.
func (r *Result) failOp(i, n int, err error) {
	if len(r.OpErrs) == 0 {
		r.OpErrs = zeroed(r.OpErrs, n)
	}
	if r.OpErrs[i] != nil {
		return
	}
	r.OpErrs[i] = err
	r.Applied--
	if r.Err == nil || r.ErrIndex > i {
		r.ErrIndex, r.Err = i, err
	}
}

// Apply executes the batch against the table and every index, as one
// trip through the write pipeline (see pipeline.run for the stages).
// See Result for the per-op-atomicity contract and Batch for aliasing
// and intra-batch ordering rules.
func (t *Table) Apply(b *Batch, opts ...ApplyOption) (Result, error) {
	var res Result
	err := t.ApplyInto(&res, b, opts...)
	return res, err
}

// ApplyInto is Apply reporting into *res, whose RIDs and OpErrs slices
// it reuses when their capacity suffices: a caller that threads one
// Result through its Applies (the server's write coalescer) pays for
// no result storage after the first. Everything else in *res is
// overwritten; the returned error is res.Err. Should the wait for the
// trip's record to be durable fail, every op fails with it: none of
// them may be acked.
//
// Like every table write, it holds the table mutex only shared (to
// pin the index set): parallel Applies contend on the heap's insert
// mutex and per index leaf, never on the table.
//
// nblb:commit-entry — the audited mutate+log-append critical section.
func (t *Table) ApplyInto(res *Result, b *Batch, opts ...ApplyOption) error {
	if b == nil || len(b.ops) == 0 {
		*res = Result{ErrIndex: -1}
		return nil
	}
	e := t.engine
	p := e.getPipeline()
	p.aim(t)
	// The options write into the pooled pipeline: a local config would
	// escape through the option calls and cost an allocation per Apply.
	for _, o := range opts {
		o(&p.applyConfig)
	}
	p.buf = append(p.buf, b.ops...)
	p.ops = p.buf
	if p.wantRIDs {
		p.res.RIDs = zeroed(res.RIDs, len(p.ops)) // all InvalidRID
	}
	p.res.OpErrs = res.OpErrs[:0] // filled at the first failure
	// The raw commit stamp allocates BEFORE the gate: rawStampTS takes
	// txnMu, and the engine-wide lock order is txnMu before commitGate
	// (Txn.Commit holds txnMu across its gated section). Taking txnMu
	// with the gate held shared would deadlock the moment a gate writer
	// (checkpoint, GC) is pending: the writer waits for this reader, a
	// committer holding txnMu waits for the writer, and this reader
	// waits for the committer's txnMu.
	p.stamp = e.rawStampTS()
	// The whole mutate+log-append runs inside the commit gate (shared):
	// under WAL so a checkpoint can never observe effects whose record
	// is half-appended, and even without one because RunGC holds the
	// gate exclusively for its own trips. The fsync happens after the
	// gate drops — holding it across disk latency would stall
	// checkpoints for nothing.
	e.commitGate.RLock()
	t.mu.RLock()
	p.run()
	lsn := p.appendRecord()
	t.mu.RUnlock()
	e.commitGate.RUnlock()
	if p.wb != nil {
		if lsn != 0 {
			if cerr := e.walCommit(lsn); cerr != nil {
				p.failAll(cerr)
			}
		}
		e.maybeCheckpoint()
	}
	*res = p.res
	e.putPipeline(p)
	return res.Err
}

// appendRecord is a raw trip's epilogue (Table.ApplyInto's and GC's):
// it appends the record even for a failed trip, whose logged actions
// are exactly the effects that landed. A failed append stops the
// engine, which would otherwise serve effects the log never replays.
func (p *pipeline) appendRecord() (lsn uint64) {
	if p.wb.empty() {
		return 0
	}
	e := p.t.engine
	lsn, err := e.wal.Append(recBatch, p.wb.payload())
	if err != nil {
		p.failAll(e.stop(err))
	}
	return lsn
}

// zeroed returns s resized to n zero elements, reallocating only when
// its capacity is short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// pipeline is one table's trip through the write stages, and the only
// way heap records and index entries reach storage. Its callers differ
// in policy, not in path:
//
//   - Table.Apply (raw): updates and deletes mutate in place, inserts
//     are born at stamp only while a snapshot is pinned (see
//     Engine.rawStampTS), and an op that fails is kept out of the later
//     stages while the others go on (see Result); of its landed effects
//     only a failed insert's row and entries are taken back. A GC pass
//     is a raw trip of deletes of the collected versions, under the
//     gate held exclusively (Table.gcLocked).
//   - Txn.Commit (vers set): every new record is a version born at the
//     commit timestamp, superseded and deleted rows are stamped dead
//     instead of touched, their index entries stay for snapshot readers
//     (GC unlinks them), and every landed effect is noted in vers so
//     rollbackEffects can reverse a commit that fails part-way.
//
// Both log each landed effect to wb in effect order, which is the order
// recovery replays. Instances (and their stage scratch) are pooled on
// the engine: Apply is the hot path.
type pipeline struct {
	t     *Table
	ops   []stagedOp
	res   Result
	wb    *walBatch // nil without a WAL: every append is a no-op
	stamp uint64    // born timestamp of new records (0 = no version metadata)
	vers  *txnTable // the committing transaction's side of t; nil = raw

	applyConfig // Apply's options (a commit runs with the zero config)
	stageScratch
}

// stageScratch is what a pipeline keeps from one use to the next.
type stageScratch struct {
	wbuf   walBatch
	buf    []stagedOp // Apply's private copy of the caller's ops
	dels   runEntries
	ups    runEntries
	recs   [][]byte
	rids   []storage.RID
	insOps []int
	toFree []int // the ops whose row stage 5 frees: moves, failed inserts
	stageArena
}

// stageArena backs the encoded records, pre-image records and index
// entry keys of one pipeline trip, or of one transaction's whole stage:
// they are carved from arena back to back instead of allocated one by
// one. A chunk that fills up is left to the slices that alias it and a
// larger one takes over, so nothing carved ever moves. vals is the same
// for the pre-images' decoded rows.
type stageArena struct {
	arena []byte
	vals  []tuple.Value
}

// maxArena bounds the arena chunk a pooled pipeline keeps; maxVals is
// the same bound for vals, in values.
const (
	maxArena = 64 << 10
	maxVals  = 1 << 10
)

// carve returns an empty slice with room for n elements from the end
// of *arena. A chunk too full to serve is left to the slices that alias
// it and one twice its size takes over, up to keep (or n, if larger).
func carve[T any](arena *[]T, n, keep int) []T {
	a := *arena
	if cap(a)-len(a) < n {
		a = make([]T, 0, max(n, min(2*cap(a), keep)))
	}
	off := len(a)
	*arena = a[:off+n]
	return a[off : off : off+n]
}

// reserve makes room for n more bytes and nv more values in the current
// chunks, starting larger ones when they are short, so a stage whose
// size is known up front carves from one chunk of each.
func (s *stageArena) reserve(n, nv int) {
	if cap(s.arena)-len(s.arena) < n {
		s.arena = make([]byte, 0, max(n, min(2*cap(s.arena), maxArena)))
	}
	if cap(s.vals)-len(s.vals) < nv {
		s.vals = make([]tuple.Value, 0, max(nv, min(2*cap(s.vals), maxVals)))
	}
}

// endTrip empties the arena and vals: whatever was carved from them is
// dead. Under PoisonScratch it is overwritten first.
func (s *stageArena) endTrip() {
	if poisonScratch.Load() {
		a, v := s.arena[:cap(s.arena)], s.vals[:cap(s.vals)]
		for i := range a {
			a[i] = 0xDB
		}
		for i := range v {
			v[i] = poisonValue
		}
	}
	s.arena, s.vals = s.arena[:0], s.vals[:0]
}

var poisonScratch atomic.Bool

// poisonValue is what PoisonScratch leaves where no value may be read.
var poisonValue = tuple.Value{Kind: 0xDB, Int: -0x2424242424242425, Str: "\xdb\xdb\xdb\xdb dead scratch"}

// PoisonScratch is wire.PoisonReleased for the write paths' scratch:
// while on, a pipeline trip's arena and pre-image rows are overwritten
// with 0xDB as the trip ends, and a transaction's as Commit or Abort
// returns, so a pre-image value (tuple.DecodeAlias views the arena), a
// staged record or a carved key kept past its owner reads as garbage at
// once instead of as plausible stale data. A reader's decoded heap row
// gets the same treatment at every position outside its field set
// (decodeFields). Nothing outside tests calls it.
func PoisonScratch(on bool) { poisonScratch.Store(on) }

// entryKey is Index.entryKey carved from the arena. Keys have no size
// known up front, so one is appended at the arena's end and, should
// that outgrow the chunk, append's copy becomes the new chunk.
func (s *stageArena) entryKey(ix *Index, row tuple.Row, rid storage.RID) ([]byte, error) {
	off := len(s.arena)
	buf, err := ix.appendEntryKey(s.arena, row, rid)
	if err != nil {
		return nil, err
	}
	s.arena = buf
	return buf[off:len(buf):len(buf)], nil
}

// preImage loads and decodes the row at rid into the scratch: the
// record is read onto the arena's end (as entryKey appends a key) and
// the row is a view of it carved from vals. Both die with the trip. sum
// is the record's heap.RecordSum, for the log record that removes it.
func (s *stageArena) preImage(t *Table, rid storage.RID) (row tuple.Row, sum uint32, err error) {
	off := len(s.arena)
	buf, err := t.file.GetInto(s.arena, rid)
	if err != nil {
		return nil, 0, err
	}
	s.arena = buf
	row, err = s.rowView(t, buf[off:])
	return row, heap.RecordSum(buf[off:]), err
}

// rowView decodes rec, a record carved from the arena, as a row carved
// from vals whose strings and bytes are views of rec — or, a string its
// string slot rebuilds, of the arena's end, appended to as entryKey
// appends a key.
func (s *stageArena) rowView(t *Table, rec []byte) (tuple.Row, error) {
	row, _, err := tuple.DecodeAlias(carve(&s.vals, t.schema.NumFields(), maxVals), t.schema, rec, nil, &s.arena)
	return row, err
}

// getPipeline returns a pooled pipeline; aim it before use.
func (e *Engine) getPipeline() *pipeline {
	p, _ := e.pipePool.Get().(*pipeline)
	if p == nil {
		p = new(pipeline)
	}
	if e.wal != nil {
		p.wb = &p.wbuf
	}
	return p
}

// aim points the pipeline at t with a clean result, log record and
// arena (what the previous table's trip carved is dead by now: its
// records are in the heap and the log, its keys in the trees, its
// pre-images dropped with their ops, and noteEntries copied the keys
// undo needs).
func (p *pipeline) aim(t *Table) {
	p.t = t
	p.res = Result{ErrIndex: -1}
	p.endTrip()
	if p.wb != nil {
		p.wb.reset(t.name)
	}
}

// putPipeline recycles p once its record has been appended to the log
// (the log copies the payload into its frame), dropping the references
// to caller rows the scratch would otherwise pin.
func (e *Engine) putPipeline(p *pipeline) {
	clear(p.buf)
	clear(p.recs)
	p.buf, p.recs = p.buf[:0], p.recs[:0]
	p.endTrip()
	if cap(p.arena) > maxArena { // an append doubled it past the bound
		p.arena = nil
	}
	if cap(p.vals) > maxVals {
		p.vals = nil
	}
	*p = pipeline{stageScratch: p.stageScratch}
	e.pipePool.Put(p)
}

// preflight readies one op for the stages: the pre-image loads and the
// new row encodes, sized once and carved from sc. op.oldRow is a view of
// sc: it lives as long as sc's current trip (or transaction) does.
func (t *Table) preflight(op *stagedOp, sc *stageArena) (err error) {
	if op.kind != BatchInsert {
		if op.oldRow, op.oldSum, err = sc.preImage(t, op.rid); err != nil {
			return fmt.Errorf("core: %v of %v: %w", op.kind, op.rid, err)
		}
		if op.move {
			op.row = op.oldRow
		}
	}
	if op.kind != BatchDelete {
		n, err := tuple.EncodedSize(t.schema, op.row)
		if err == nil {
			op.rec, _, err = tuple.EncodeEscapes(t.schema, op.row, carve(&sc.arena, n, maxArena))
		}
		if err != nil {
			return fmt.Errorf("core: encoding row for %q: %w", t.name, err)
		}
	}
	return nil
}

// fail records op i's attributable failure and reports whether the
// pipeline must stop: a commit stops at its first failure, since it
// rolls back whole; a raw trip's op fails alone and is kept out of the
// later stages.
func (p *pipeline) fail(i int, err error) (stop bool) {
	p.res.failOp(i, len(p.ops), err)
	if p.vers != nil {
		return true
	}
	if op := &p.ops[i]; !op.skip && op.kind == BatchInsert && op.newRID.Valid() {
		p.toFree = append(p.toFree, i) // its row landed: stage 5 takes it back
	}
	p.ops[i].skip = true
	return false
}

// failRun records a failure inside an index run.
func (p *pipeline) failRun(ix *Index, err error) {
	p.failAll(fmt.Errorf("core: maintaining index %q: %w", ix.name, err))
}

// failAll records a failure below the per-op stage (an I/O error inside
// an index run, a failed append or durability wait), where "which ops
// completed" is unknowable: every op not already failed fails with it,
// and the first such failure is the batch's error.
func (p *pipeline) failAll(err error) {
	for i := range p.ops {
		p.res.failOp(i, len(p.ops), err)
	}
	if p.res.ErrIndex != -1 || p.res.Err == nil {
		p.res.ErrIndex, p.res.Err = -1, err
	}
}

// run lands p.ops, stage by stage:
//
//  1. Pre-flight (raw only — a transaction pre-flights as it stages):
//     rows encode and pre-images load, in batch order, and a delete of
//     a row an earlier op updates fails.
//  2. Index deletes: delete ops' entries, one key-sorted leaf-grouped
//     run (btree.Tree.ApplyRun) per index — entries leave the indexes
//     before their heap rows die, so readers cannot chase a freed RID;
//     an entry leaves only while it names the row being deleted.
//  3. Heap: deletes and updates per RID, then every new record in one
//     run (heap.File.InsertRun) under one acquisition of the heap's
//     insert mutex instead of one per row.
//  4. Index upserts (inserts, update key moves and relocations), again
//     one key-sorted run per index: one crabbed descent and one
//     exclusive leaf latch per leaf run instead of per key.
//  5. Frees (raw only), whatever stages 2–4 did: each moved row's old
//     copy, once stage 4 has repointed its entries (stage 2's rule),
//     and the landed row of each insert that failed alone, once stage
//     2's run has taken back the entries it got before its failure.
//
// A raw op that fails (pipeline.fail) is kept out of every later stage
// and the rest go on; a commit stops at its first failure.
//
// A trip that brings the table to its layout sample first adopts the
// packed record layout (layout.go): a raw trip's records are then
// written in it, a commit's were encoded when they staged.
//
// Caller holds the commit gate and t.mu shared.
func (p *pipeline) run() {
	p.adoptLayout()
	p.res.Applied = len(p.ops) // each failure takes one off
	if p.vers == nil {
		upd := len(p.ops) // the trip's first update
		for i := range p.ops {
			op := &p.ops[i]
			err := p.t.preflight(op, &p.stageArena)
			if op.kind == BatchUpdate {
				upd = min(upd, i)
			} else if err == nil && op.kind == BatchDelete && p.updates(upd, i) {
				err = fmt.Errorf("core: delete of %v after an update of it in the same batch: %w", op.rid, storage.ErrDeleted)
			}
			if err != nil {
				p.fail(i, err)
			}
		}
	}
	p.toFree = p.toFree[:0]
	if p.indexDeletes(false) && p.heapStage() {
		p.indexUpserts()
	}
	p.frees()
}

// updates reports whether an op in [from, i) updates op i's row. A raw
// delete after one fails in pre-flight, as on a freed slot: the update
// may rewrite the record in place, and the delete would free the
// rewrite and drop only the pre-image's entries, not those the update
// adds.
func (p *pipeline) updates(from, i int) bool {
	for j := from; j < i; j++ {
		if o := &p.ops[j]; o.kind == BatchUpdate && !o.skip && o.rid == p.ops[i].rid {
			return true
		}
	}
	return false
}

// frees is stage 5: it frees the row of each op in p.toFree. For a
// move that is the old copy, which stage 3 logged as removed by its
// put, so a failed free stops the engine (its pool closes) rather than
// serve a row recovery would not; a slot that no longer holds the old
// copy was freed (and perhaps reused) by a racing write of the same
// row, and the op fails. For an insert that failed alone it is the row
// it landed, which goes the way a delete's does: entries first (stage
// 2's run, keyed by the new RID), then the row, both logged. A racing
// write that took the slot over keeps it.
func (p *pipeline) frees() {
	undo := len(p.toFree) > 0 && len(p.res.OpErrs) > 0 && p.indexDeletes(true)
	for _, i := range p.toFree {
		op := &p.ops[i]
		rid, sum := op.rid, op.oldSum
		if op.kind == BatchInsert {
			if !undo {
				continue // its entries may stand: so does the row
			}
			rid, sum = op.newRID, heap.RecordSum(op.rec)
			if p.res.RIDs != nil {
				p.res.RIDs[i] = storage.InvalidRID
			}
		}
		err := p.t.file.DeleteIf(rid, sum)
		switch {
		case err == nil && op.kind == BatchInsert:
			p.addRows(-1)
			p.wb.del(rid, sum)
		case errors.Is(err, storage.ErrDeleted):
			p.fail(i, fmt.Errorf("core: update of %v raced a write of the same row: %w", rid, err))
		case err != nil:
			p.failAll(p.t.engine.stop(fmt.Errorf("core: freeing %v: %w", rid, err)))
			return
		}
	}
}

// runEntries is the per-index accumulation of one index stage: the run
// plus, per entry, the originating batch position (same-key order,
// error attribution) and the occupant the entry must find (want, packed
// RID; 0 with RunInsertIfAbsent = must find none, 0 otherwise = no
// expectation).
type runEntries struct {
	entries []btree.RunEntry
	pos     []int
	want    []uint64
}

func (r *runEntries) reset() {
	r.entries, r.pos, r.want = r.entries[:0], r.pos[:0], r.want[:0]
}

func (r *runEntries) add(key []byte, value uint64, op btree.RunOp, pos int, want uint64) {
	r.entries = append(r.entries, btree.RunEntry{Key: key, Value: value, Op: op})
	r.pos = append(r.pos, pos)
	r.want = append(r.want, want)
}

// missed reports whether entry k, applied, did not find the occupant it
// had to.
func (r *runEntries) missed(k int) bool {
	e, want := &r.entries[k], r.want[k]
	if e.Op != btree.RunInsertIfAbsent && want == 0 {
		return false // no expectation
	}
	return e.Existed != (want != 0) || e.Prev != want
}

// sort orders the run by key and, within one key, by batch position —
// ApplyRun applies equal keys in slice order, so that is the order the
// same ops would take effect in applied one batch each.
func (r *runEntries) sort() {
	if len(r.entries) > 1 {
		sort.Sort(r)
	}
}

func (r *runEntries) Len() int { return len(r.entries) }
func (r *runEntries) Less(i, j int) bool {
	if c := bytes.Compare(r.entries[i].Key, r.entries[j].Key); c != 0 {
		return c < 0
	}
	return r.pos[i] < r.pos[j]
}
func (r *runEntries) Swap(i, j int) {
	r.entries[i], r.entries[j] = r.entries[j], r.entries[i]
	r.pos[i], r.pos[j] = r.pos[j], r.pos[i]
	r.want[i], r.want[j] = r.want[j], r.want[i]
}

// doomed reports whether an index-delete run takes op's entries out,
// and those of which row: in stage 2 a delete's target, in stage 5
// (undo) the landed row of an insert that failed alone.
func (op *stagedOp) doomed(undo bool) (tuple.Row, storage.RID, bool) {
	if undo {
		return op.row, op.newRID, op.kind == BatchInsert && op.skip && op.newRID.Valid()
	}
	return op.oldRow, op.rid, op.kind == BatchDelete && !op.skip
}

// indexDeletes is stage 2, and stage 5's first step with undo. It
// reports whether the pipeline goes on.
func (p *pipeline) indexDeletes(undo bool) bool {
	dels := &p.dels
	for _, ix := range p.t.indexes {
		dels.reset()
		for i := range p.ops {
			row, rid, ok := p.ops[i].doomed(undo)
			if !ok {
				continue
			}
			key, err := p.entryKey(ix, row, rid)
			if err != nil {
				if p.fail(i, err) {
					return false
				}
				continue
			}
			dels.add(key, rid.Pack(), btree.RunDeleteIf, i, 0)
		}
		if dels.Len() == 0 {
			continue
		}
		dels.sort()
		// An applied run removes an entry only while it names the row
		// (a GC'd version's unique key names a newer one) and logs what
		// it removed. A commit leaves the entries for snapshot readers
		// and only logs them gone: its record replays flattened.
		gone := dels.entries
		if p.vers == nil {
			if _, err := ix.tree.ApplyRun(dels.entries); err != nil {
				p.failRun(ix, err)
				return false
			}
			gone = gone[:0]
			for _, e := range dels.entries {
				if e.Existed && e.Prev == e.Value {
					gone = append(gone, e)
				}
			}
		}
		p.wb.idx(ix.name, gone...)
		if ix.cache != nil {
			for _, e := range gone {
				ix.cache.NotifyUpdate(e.Key)
			}
		}
	}
	return true
}

// landed publishes op i's heap write the moment it lands, not at the
// end: a later stage failing must not hide where an already-durable op
// put its row (a caller redirecting old RIDs depends on relocated RIDs
// being reported even for a batch that then errors).
func (p *pipeline) landed(i int, newRID storage.RID) {
	op := &p.ops[i]
	op.newRID = newRID
	old := storage.InvalidRID // an insert replaces no record
	if op.kind == BatchUpdate {
		old = op.rid
	}
	p.wb.put(old, newRID, op.rec, op.oldSum)
	if p.res.RIDs != nil {
		p.res.RIDs[i] = newRID
	}
}

// addRows moves the table's live-row count, noting the move for undo.
func (p *pipeline) addRows(n int64) {
	p.t.rows.Add(n)
	if p.vers != nil {
		p.vers.delta += n
	}
}

// heapStage is stage 3. It reports whether the pipeline goes on.
func (p *pipeline) heapStage() bool {
	t, vs := p.t, &p.t.vers
	versioned := p.vers != nil
	p.recs, p.insOps = p.recs[:0], p.insOps[:0]
	for i := range p.ops {
		op := &p.ops[i]
		if op.skip {
			continue
		}
		var err error
		switch {
		case op.kind == BatchInsert, versioned && op.kind == BatchUpdate:
			p.recs = append(p.recs, op.rec)
			p.insOps = append(p.insOps, i)
		case versioned:
			// Delete: stamped dead below, inside the run's exclusive section.
		case slices.ContainsFunc(p.toFree, func(j int) bool { return p.ops[j].rid == op.rid }):
			err = storage.ErrDeleted // an earlier op of this trip moved the row off op.rid
		case op.kind == BatchDelete:
			// Log the record freed: a racing in-place update may have
			// rewritten it. A dead version (GC's) is no live row.
			var sum uint32
			if sum, err = t.file.Delete(op.rid); err == nil {
				if t.ridVisible(op.rid, snapLatest) {
					p.addRows(-1)
				}
				p.wb.del(op.rid, sum)
			}
		default:
			newRID, sum := storage.InvalidRID, op.oldSum
			if op.move {
				newRID, err = t.file.Insert(op.rec) // Rewrite without its in-place step
			} else {
				newRID, sum, err = t.file.Rewrite(op.rid, op.rec)
			}
			if err == nil {
				if newRID != op.rid {
					vs.forget(newRID) // its new slot may hold a tombstone
					p.toFree = append(p.toFree, i)
					op.oldSum = sum // what stage 5 frees, if not the pre-image
				}
				p.landed(i, newRID)
			}
		}
		if err != nil {
			p.fail(i, err) // raw only: a commit's ops fail nothing here
		}
	}
	if len(p.recs) == 0 && !versioned {
		return true
	}

	if cap(p.rids) < len(p.recs) {
		p.rids = make([]storage.RID, len(p.recs))
	}
	rids := p.rids[:len(p.recs)]
	allow := len(p.recs)
	if versioned {
		allow = commitSeam(allow)
	}
	// Records and their version metadata land inside ONE exclusive
	// section of the version store — per table per commit, or per raw
	// run while a snapshot is pinned — so a heap scanner that copied a
	// new record's bytes always finds its born stamp when it takes the
	// read lock to check, and an index reader that finds a new entry
	// finds the metadata published before the entry. The store's flag
	// goes up before the first record lands, or a scanner could copy that
	// record and still leave ridVisible by its "no metadata anywhere"
	// exit, without ever waiting on the lock.
	if p.stamp != 0 {
		vs.mu.Lock()
		vs.any.Store(true)
	}
	placed, err := t.file.InsertRun(p.recs[:allow], rids)
	if err == nil && allow < len(p.recs) {
		err = errInjectedCommitFailure
	}
	if p.stamp == 0 {
		vs.forget(rids[:placed]...)
	}
	inserted := 0
	for k, i := range p.insOps[:placed] {
		op := &p.ops[i]
		if op.kind == BatchInsert {
			inserted++
		}
		if p.stamp != 0 {
			prev := op.prev
			if prev == 0 && op.kind == BatchUpdate {
				prev = op.rid.Pack()
			}
			vs.set(rids[k], versionMeta{born: p.stamp, prev: prev})
		}
		p.landed(i, rids[k])
	}
	p.addRows(int64(inserted))
	if versioned && err == nil {
		for i := range p.ops {
			op := &p.ops[i]
			if op.kind == BatchInsert {
				continue
			}
			vs.markDead(op.rid, p.stamp)
			t.engine.deadVersions.Add(1)
			p.vers.dead++
			if op.kind == BatchDelete {
				p.addRows(-1)
				p.wb.del(op.rid, op.oldSum)
			}
		}
	}
	if p.stamp != 0 {
		vs.mu.Unlock()
	}
	if err != nil {
		// The rows that did place still get their index entries; the
		// rest fail as a group (the run stops at the first bad spot, so
		// "placed and after" is exact attribution here).
		for _, i := range p.insOps[placed:] {
			if p.fail(i, err) {
				return false
			}
		}
	}
	return true
}

// indexUpserts is stage 4.
func (p *pipeline) indexUpserts() {
	versioned := p.vers != nil
	ups := &p.ups
	for _, ix := range p.t.indexes {
		// An update's moved-away key leaves with the run — except under
		// a commit, which keeps it in the tree for snapshot readers and
		// only logs it gone.
		gone := ups
		if versioned {
			gone = &p.dels
			gone.reset()
		}
		ups.reset()
		for i := range p.ops {
			op := &p.ops[i]
			if op.skip || op.kind == BatchDelete {
				continue
			}
			newKey, err := p.entryKey(ix, op.row, op.newRID)
			var oldKey []byte
			if err == nil && op.kind == BatchUpdate {
				oldKey, err = p.entryKey(ix, op.oldRow, op.rid)
			}
			if err != nil {
				if p.fail(i, err) {
					return
				}
				continue
			}
			moved := op.newRID != op.rid
			keyChanged := oldKey != nil && !bytes.Equal(oldKey, newKey)
			if keyChanged {
				gone.add(oldKey, 0, btree.RunDelete, i, 0)
			}
			if moved || keyChanged {
				runOp, want := p.entryOp(ix, op, newKey, keyChanged)
				ups.add(newKey, op.newRID.Pack(), runOp, i, want)
			}
			if ix.cache == nil {
				continue
			}
			// Invalidate wherever a cached payload could be stale: the
			// row moved (RID reuse hazard), the key changed (the entry
			// lives under a dead key), a cached field changed value, or
			// a commit's insert took over a dead holder's entry. A raw
			// insert's key was absent, and entries cache lazily.
			if oldKey == nil {
				if versioned {
					ix.cache.NotifyUpdate(newKey)
				}
			} else if moved || keyChanged || ix.cachedFieldsChanged(op.oldRow, op.row) {
				ix.cache.NotifyUpdate(oldKey)
				if keyChanged {
					ix.cache.NotifyUpdate(newKey)
				}
			}
		}
		if versioned && gone.Len() > 0 {
			gone.sort()
			p.wb.idx(ix.name, gone.entries...)
		}
		if ups.Len() == 0 {
			continue
		}
		if versioned && commitSeam(1) == 0 {
			p.failRun(ix, errInjectedCommitFailure)
			return
		}
		ups.sort()
		st, err := ix.tree.ApplyRun(ups.entries)
		if versioned {
			p.vers.noteEntries(ix, ups.entries[:st.Done])
		}
		if err != nil {
			// A run that fails mid-ApplyRun is not logged — its partial
			// tree damage is why such a failure fails every op (Result).
			p.failRun(ix, err)
			return
		}
		// An entry that did not find what it had to — an if-absent claim
		// whose key existed, a commit's upsert over anything but the
		// occupant its pre-check recorded — is a duplicate key, with exact
		// attribution. A collided claim wrote nothing: the survivor's
		// entry is untouched, and it must not replay as an upsert, so the
		// log keeps only the entries that landed. A raw duplicate fails
		// alone and stays out of the remaining indexes' runs; stage 5
		// takes back its row and the entries earlier runs gave it.
		logged, stop := ups.entries[:0], false
		for k := range ups.entries {
			if ups.missed(k) {
				stop = p.fail(ups.pos[k], fmt.Errorf("core: index %q: duplicate key", ix.name)) || stop
			}
			if e := ups.entries[k]; e.Op != btree.RunInsertIfAbsent || !e.Existed {
				logged = append(logged, e)
			}
		}
		p.wb.idx(ix.name, logged...)
		if stop {
			return
		}
	}
}

// entryOp picks how op's new entry under key enters ix, and the
// occupant it must find there (see runEntries.want). Raw writes check
// only inserts, by claiming the key if-absent; updates upsert blind. A
// commit checks every unique entry against what its pre-check saw under
// txnMu — which a concurrent raw Apply, sharing the commit gate, can
// still invalidate.
func (p *pipeline) entryOp(ix *Index, op *stagedOp, key []byte, keyChanged bool) (btree.RunOp, uint64) {
	switch {
	case !ix.unique:
		return btree.RunUpsert, 0
	case p.vers == nil:
		if op.kind == BatchInsert {
			return btree.RunInsertIfAbsent, 0
		}
		return btree.RunUpsert, 0
	case op.kind == BatchUpdate && !keyChanged:
		// The entry still points at the version being superseded.
		return btree.RunUpsert, op.rid.Pack()
	}
	if c := p.vers.tx.claimed.find(ix, key); c != nil && c.val.occupant != 0 {
		return btree.RunUpsert, c.val.occupant
	}
	return btree.RunInsertIfAbsent, 0
}
