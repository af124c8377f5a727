package core

import (
	"bytes"
	"fmt"
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
// for callers that post-process Apply results — e.g. the hot/cold
// partition recording forwarding entries for relocated updates.
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
	esc    uint64      // pre-flight: rec's escape bitmap (tuple.EncodeEscapes)
	oldRow tuple.Row   // pre-flight: the pre-image (update/delete)
	oldSum uint32      // pre-flight: the pre-image record's heap.RecordSum
	newRID storage.RID // heap stage: where the new record landed
	// prev is the packed RID of the version this op's record chains back
	// to; only a transaction's commit pre-check sets it (0 = none).
	prev uint64
	skip bool // isolation: the op failed, keep it out of later stages
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

type applyConfig struct {
	wantRIDs bool
	isolate  bool
}

// WithResultRIDs makes Apply record each op's resulting RID in
// Result.RIDs (inserts: the new row; updates: the possibly relocated
// row; deletes: InvalidRID). Off by default — the slice is one
// allocation a fire-and-forget ingest batch does not need.
func WithResultRIDs() ApplyOption {
	return func(c *applyConfig) { c.wantRIDs = true }
}

// WithErrorIsolation switches Apply from prefix semantics to per-op
// isolation: an op whose failure is attributable (bad row encoding, a
// missing update/delete target, a duplicate unique key) is recorded in
// Result.OpErrs and skipped, and every other op still applies. The
// network server's cross-connection coalescer depends on this — one
// client's duplicate key must never fail a neighbor's op that happens
// to share the drained batch.
//
// Under isolation Result.ErrIndex points at the lowest failed op and
// OpErrs holds each op's error, but Result.Err stays nil — Apply
// returns a nil error when every failure was per-op. Only a
// non-attributable failure (an I/O error mid-run) sets Err and is
// returned, and it also fails every op that had not completed by
// then. A failed duplicate insert leaves an orphaned heap row behind
// (its row was written before the collision was detected) but never
// touches the surviving row's index entries, exactly as in the
// default mode.
func WithErrorIsolation() ApplyOption {
	return func(c *applyConfig) { c.isolate = true }
}

// Result reports what one Apply did.
//
// The contract is per-op, not transactional: each op applies
// independently and becomes visible to concurrent readers atomically
// per structure (heap row before its index entries for inserts, index
// entries removed before the heap row for deletes), so a reader never
// observes a half-applied row — but there is no all-or-nothing batch
// and no rollback. On error, ops before ErrIndex are applied, the op
// at ErrIndex and everything after are not; when the error arose below
// the per-op stage (an I/O failure mid-run), Applied is a lower bound
// and later ops may be partially indexed.
type Result struct {
	// Applied counts ops applied end to end.
	Applied int
	// ErrIndex is the batch position of the first failed op, -1 when
	// every op applied (or the failure was not attributable to one op).
	ErrIndex int
	// Err is the first error encountered (also returned by Apply).
	Err error
	// RIDs holds each op's resulting RID when WithResultRIDs was given.
	// Each entry is filled the moment the op's heap write lands, so on
	// a failed batch the RIDs of ops that did reach the heap are still
	// reported (ops that never ran stay InvalidRID).
	RIDs []storage.RID
	// OpErrs holds each op's error under WithErrorIsolation (nil entry
	// = the op applied). Nil without the option.
	OpErrs []error
}

// fail records the first error on the result and returns it.
func (r *Result) fail(i int, err error) error {
	if r.Err == nil {
		r.ErrIndex, r.Err = i, err
	}
	return r.Err
}

// failOp records an op-attributable failure under isolation: the op's
// error lands in OpErrs, ErrIndex tracks the lowest failed position,
// and the batch carries on. Result.Err is deliberately not touched —
// per-op failures do not fail an isolated batch.
func (r *Result) failOp(i int, err error) {
	if r.OpErrs[i] == nil {
		r.OpErrs[i] = err
	}
	if r.ErrIndex == -1 || i < r.ErrIndex {
		r.ErrIndex = i
	}
}

// failRemaining marks every op that has not already failed with err —
// isolation's handling of a non-attributable mid-run failure, where
// "which ops completed" is unknowable below the per-op stage.
func (r *Result) failRemaining(err error) {
	for i := range r.OpErrs {
		if r.OpErrs[i] == nil {
			r.OpErrs[i] = err
		}
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
// overwritten; the returned error is res.Err.
//
// Like every table write, it holds the table mutex only shared (to
// pin the index set): parallel Applies contend per heap shard and per
// index leaf, never on the table.
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
	if p.isolate {
		p.res.OpErrs = zeroed(res.OpErrs, len(p.ops))
	}
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
	// gate exclusively and relies on it to serialize its heap and tree
	// surgery against concurrent raw mutations. The fsync happens after
	// the gate drops — holding it across disk latency would stall
	// checkpoints for nothing.
	e.commitGate.RLock()
	t.mu.RLock()
	p.run()
	// Commit epilogue. The record is appended even for a failed batch —
	// its logged actions are exactly the effects that landed (damage-
	// then-report), so recovery reproduces them.
	var lsn uint64
	if !p.wb.empty() {
		if l, aerr := e.wal.Append(recBatch, p.wb.payload()); aerr != nil {
			p.res.fail(-1, aerr)
		} else {
			lsn = l
		}
	}
	t.mu.RUnlock()
	e.commitGate.RUnlock()
	if p.wb != nil {
		if lsn != 0 {
			if cerr := e.walCommit(lsn); cerr != nil {
				p.res.fail(-1, cerr)
			}
		}
		e.maybeCheckpoint()
	}
	*res = p.res
	e.putPipeline(p)
	return res.Err
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
// way heap records and index entries reach storage. Its two callers
// differ in policy, not in path:
//
//   - Table.Apply (raw): updates and deletes mutate in place, inserts
//     are born at stamp only while a snapshot is pinned (see
//     Engine.rawStampTS), and a failure is reported, not undone.
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
	}
	if op.kind != BatchDelete {
		n, err := tuple.EncodedSize(t.schema, op.row)
		if err == nil {
			op.rec, op.esc, err = tuple.EncodeEscapes(t.schema, op.row, carve(&sc.arena, n, maxArena))
		}
		if err != nil {
			return fmt.Errorf("core: encoding row for %q: %w", t.name, err)
		}
	}
	return nil
}

// fail records op i's attributable failure and reports whether the
// pipeline must stop: under isolation the op fails alone and is kept
// out of later stages, otherwise it fails the batch.
func (p *pipeline) fail(i int, err error) (stop bool) {
	if p.isolate {
		p.res.failOp(i, err)
		p.ops[i].skip = true
		return false
	}
	p.res.fail(i, err)
	return true
}

// failRun records a failure below the per-op stage (an I/O error inside
// an index run), where "which ops completed" is unknowable.
func (p *pipeline) failRun(ix *Index, err error) {
	err = fmt.Errorf("core: maintaining index %q: %w", ix.name, err)
	if p.isolate {
		p.res.failRemaining(err)
	}
	p.res.fail(-1, err)
}

// run lands p.ops, stage by stage:
//
//  1. Pre-flight (raw only — a transaction pre-flights as it stages):
//     rows encode and pre-images load, in batch order; the first
//     failure truncates the batch at that op.
//  2. Index deletes: delete ops' entries, one key-sorted leaf-grouped
//     run (btree.Tree.ApplyRun) per index — entries leave the indexes
//     before their heap rows die, so readers cannot chase a freed RID.
//  3. Heap: deletes and updates per RID, then every new record through
//     the sharded heap in one shard-affine run (heap.File.InsertRun)
//     under one shard-mutex acquisition instead of one per row.
//  4. Index upserts (inserts, update key moves and relocations), again
//     one key-sorted run per index: one crabbed descent and one
//     exclusive leaf latch per leaf run instead of per key.
//
// A trip that brings the table to its layout sample first adopts the
// packed record layout (layout.go): a raw trip's records are then
// written in it, a commit's were encoded when they staged.
//
// Caller holds the commit gate and t.mu shared.
func (p *pipeline) run() {
	p.adoptLayout()
	if p.vers == nil {
		for i := range p.ops {
			if err := p.t.preflight(&p.ops[i], &p.stageArena); err != nil && p.fail(i, err) {
				// Ops before i proceed through the stages; i and
				// everything after are never started.
				p.ops = p.ops[:i]
				break
			}
		}
	}
	if len(p.ops) == 0 || !p.indexDeletes() || !p.heapStage() || !p.indexUpserts() {
		return
	}
	p.res.Applied = len(p.ops)
	for _, err := range p.res.OpErrs {
		if err != nil {
			p.res.Applied--
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

// indexDeletes is stage 2. It reports whether the pipeline goes on.
func (p *pipeline) indexDeletes() bool {
	dels := &p.dels
	for _, ix := range p.t.indexes {
		dels.reset()
		for i := range p.ops {
			op := &p.ops[i]
			if op.kind != BatchDelete || op.skip {
				continue
			}
			key, err := p.entryKey(ix, op.oldRow, op.rid)
			if err != nil {
				if p.fail(i, err) {
					return false
				}
				continue
			}
			dels.add(key, 0, btree.RunDelete, i, 0)
		}
		if dels.Len() == 0 {
			continue
		}
		dels.sort()
		// A commit leaves the entries in the tree for snapshot readers
		// and only logs them gone: its record replays flattened.
		if p.vers == nil {
			if _, err := ix.tree.ApplyRun(dels.entries); err != nil {
				p.failRun(ix, err)
				return false
			}
		}
		p.wb.idx(ix.name, dels.entries...)
		if ix.cache != nil {
			for _, e := range dels.entries {
				ix.cache.NotifyUpdate(e.Key)
			}
		}
	}
	return true
}

// landed publishes op i's heap write the moment it lands, not at the
// end: a later stage failing must not hide where an already-durable op
// put its row (the hot/cold partition's forwarding updates depend on
// relocated RIDs being reported even for a batch that then errors).
func (p *pipeline) landed(i int, newRID storage.RID) {
	op := &p.ops[i]
	op.newRID = newRID
	old := storage.InvalidRID // an insert replaces no record
	if op.kind == BatchUpdate {
		old = op.rid
	}
	p.wb.put(old, newRID, op.rec, op.oldSum)
	p.t.countEscapes(op.rec, op.esc)
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
		case op.kind == BatchDelete:
			if err = t.file.Delete(op.rid); err == nil {
				p.addRows(-1)
				p.wb.del(op.rid, op.oldSum)
			}
		default:
			var newRID storage.RID
			if newRID, err = t.file.Update(op.rid, op.rec); err == nil {
				if newRID != op.rid {
					vs.forget(newRID) // its new slot may hold a tombstone
				}
				p.landed(i, newRID)
			}
		}
		if err != nil && p.fail(i, err) {
			return false
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
		if !p.isolate {
			p.res.fail(p.insOps[placed], err)
			return false
		}
		// The rows that did place still get their index entries; the
		// rest fail as a group (the run stops at the first bad spot, so
		// "placed and after" is exact attribution here).
		for _, i := range p.insOps[placed:] {
			p.fail(i, err)
		}
	}
	return true
}

// indexUpserts is stage 4. It reports whether every op it was handed
// is now indexed.
func (p *pipeline) indexUpserts() bool {
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
					return false
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
			return false
		}
		ups.sort()
		st, err := ix.tree.ApplyRun(ups.entries)
		if versioned {
			p.vers.noteEntries(ix, ups.entries[:st.Done])
		}
		if err != nil {
			// A run that fails mid-ApplyRun is not logged — its partial
			// tree damage falls under the same "later ops may be
			// partially indexed" caveat the Result contract carries.
			p.failRun(ix, err)
			return false
		}
		// An entry that did not find what it had to — an if-absent claim
		// whose key existed, a commit's upsert over anything but the
		// occupant its pre-check recorded — is a duplicate key, with exact
		// attribution. A collided claim wrote nothing: the survivor's
		// entry is untouched (a raw duplicate's heap row is orphaned,
		// invisible to every index), and it must not replay as an upsert,
		// so the log keeps only the entries that landed. Under isolation
		// the duplicate fails alone and stays out of the remaining
		// indexes' runs.
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
			return false
		}
	}
	return true
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
