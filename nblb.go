// Package nblb ("no bits left behind") is a storage engine that
// implements the waste-reclaiming techniques of Wu, Curino and Madden,
// "No Bits Left Behind" (CIDR 2011):
//
//   - Index caching (§2.1): the free space of B+Tree leaf pages —
//     typically 32% of every page at the canonical 68% fill factor —
//     doubles as a volatile cache of hot tuples' field values, answering
//     point queries without touching the heap. Consistency comes from a
//     CSN scheme plus a predicate log; cache writes never add I/O.
//   - Access-based horizontal partitioning (§3.1): hot tuples are
//     clustered by delete+append or split into a hot partition whose
//     index fits in RAM.
//   - Vertical partitioning (§3.2): a cost-model advisor splits columns
//     by cache membership and update rate.
//   - Automated schema optimization (§4.1): declared types are hints; an
//     analyzer infers minimal encodings (down to single bits) and a
//     bit-packed codec realizes them.
//   - Semantic IDs (§4.2): partition bits embedded in identifiers
//     replace per-tuple routing tables; uniqueness-only IDs reduce to
//     the tuple's physical address.
//
// The package re-exports the engine API; subsystems live in internal/
// packages. See the examples/ directory for runnable walkthroughs and
// cmd/nblb-bench for the harness that regenerates the paper's figures.
package nblb

import (
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// Options configure an engine instance.
type Options = core.Options

// Engine is an embedded storage engine.
type Engine = core.Engine

// Table is a heap-backed table with indexes.
type Table = core.Table

// Index is a B+Tree index, optionally carrying an index cache.
type Index = core.Index

// LookupResult reports how a point lookup was answered (index cache vs
// heap).
type LookupResult = core.LookupResult

// Cursor streams rows from a Table.Query or Index.Query: Next / Row /
// RID / Err / Close, plus All for range-over-func iteration. Rows are
// cursor scratch — Clone to retain.
type Cursor = core.Cursor

// QueryOption configures Query (key range, prefix, projection, limit,
// reverse, cache policy).
type QueryOption = core.QueryOption

// Batch accumulates inserts, updates, and deletes for Table.Apply —
// the write-side counterpart of Query. A zero Batch is ready to use;
// see Apply for the per-op-atomicity contract.
type Batch = core.Batch

// BatchOp is the public view of one queued Batch operation.
type BatchOp = core.BatchOp

// BatchOpKind tags a queued Batch operation.
type BatchOpKind = core.BatchOpKind

// Batch op kinds.
const (
	BatchInsert = core.BatchInsert
	BatchUpdate = core.BatchUpdate
	BatchDelete = core.BatchDelete
)

// ApplyOption configures Table.Apply (per-op result RIDs).
type ApplyOption = core.ApplyOption

// ApplyResult reports what one Table.Apply did (ops applied, first
// failed op, per-op RIDs when requested).
type ApplyResult = core.Result

// TableOption configures CreateTable (heap placement policy, fill
// factor, insert shards).
type TableOption = core.TableOption

// QueryStats counts how a cursor's rows were answered (cache vs heap).
type QueryStats = core.QueryStats

// CachePolicy selects index-cache-first or heap-only reads.
type CachePolicy = core.CachePolicy

// Cache policies for WithCachePolicy.
const (
	// CacheFirst answers coverable projections from the §2.1 index
	// cache, falling back to the heap per row (the default).
	CacheFirst = core.CacheFirst
	// HeapOnly bypasses the index cache and always reads the heap.
	HeapOnly = core.HeapOnly
)

// RID is a record's physical address.
type RID = storage.RID

// Schema, Field, Kind, Value and Row describe and hold table data.
type (
	Schema = tuple.Schema
	Field  = tuple.Field
	Kind   = tuple.Kind
	Value  = tuple.Value
	Row    = tuple.Row
)

// Field kinds (declared types — hints, per §4.1).
const (
	KindInt64     = tuple.KindInt64
	KindInt32     = tuple.KindInt32
	KindInt16     = tuple.KindInt16
	KindInt8      = tuple.KindInt8
	KindBool      = tuple.KindBool
	KindFloat64   = tuple.KindFloat64
	KindChar      = tuple.KindChar
	KindString    = tuple.KindString
	KindBytes     = tuple.KindBytes
	KindTimestamp = tuple.KindTimestamp
)

// SyncPolicy selects when an acked write reaches stable storage under
// the write-ahead log (see WithWAL).
type SyncPolicy = core.SyncPolicy

// Sync policies for WithSyncPolicy.
const (
	// SyncGroupCommit (the default) makes every write durable before it
	// is acked, coalescing concurrent committers into one shared fsync.
	SyncGroupCommit = core.SyncGroupCommit
	// SyncAlways fsyncs the log on every write, no coalescing.
	SyncAlways = core.SyncAlways
	// SyncNone never fsyncs on the commit path; the log reaches disk at
	// checkpoints. A crash may lose the tail of acked writes but never
	// corrupts the database.
	SyncNone = core.SyncNone
)

// EngineOption tweaks Options in Open's functional-option form.
type EngineOption = core.EngineOption

// Durability options (see Open).
var (
	// WithWAL enables the redo write-ahead log: every batch appends one
	// checksummed record before it is acked, fuzzy checkpoints bound the
	// log's growth, and Open replays any suffix a crash left behind.
	// Requires Options.Path; the log lives beside the database file.
	WithWAL = core.WithWAL
	// WithSyncPolicy selects commit durability (default SyncGroupCommit).
	WithSyncPolicy = core.WithSyncPolicy
	// WithCheckpointEvery sets the WAL growth budget between automatic
	// checkpoints (default 4 MiB).
	WithCheckpointEvery = core.WithCheckpointEvery
)

// Open creates an engine. A zero Options value yields an in-memory
// engine with 8 KiB pages and a 4096-page buffer pool.
//
// With WithWAL (or Options.WAL) the engine is durable: acked writes
// survive process crashes per the configured SyncPolicy, and Open
// doubles as recovery — it rebuilds the catalog from the last
// checkpoint's manifest and replays the log's suffix.
func Open(opts Options, extra ...EngineOption) (*Engine, error) {
	return core.NewEngine(opts, extra...)
}

// NewSchema builds a table schema.
func NewSchema(fields ...Field) (*Schema, error) { return tuple.NewSchema(fields...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(fields ...Field) *Schema { return tuple.MustSchema(fields...) }

// Value constructors, re-exported for convenience.
var (
	Int64         = tuple.Int64
	Int32         = tuple.Int32
	Int16         = tuple.Int16
	Int8          = tuple.Int8
	Bool          = tuple.Bool
	Float64       = tuple.Float64
	Char          = tuple.Char
	String        = tuple.String
	Bytes         = tuple.Bytes
	Timestamp     = tuple.Timestamp
	TimestampUnix = tuple.TimestampUnix
	NullValue     = tuple.Null
)

// Index options.
var (
	// WithCache enables the §2.1 index cache over the named fields.
	WithCache = core.WithCache
	// WithCacheBucket sets the swap-policy bucket size.
	WithCacheBucket = core.WithCacheBucket
	// WithPredLogLimit sets the predicate-log escalation threshold.
	WithPredLogLimit = core.WithPredLogLimit
	// WithCacheSeed fixes cache placement randomness.
	WithCacheSeed = core.WithCacheSeed
	// WithFillFactor sets the bulk-build fill factor (default 0.68).
	WithFillFactor = core.WithFillFactor
	// NonUnique permits duplicate keys.
	NonUnique = core.NonUnique
	// WithAppendOnlyHeap gives a table the append-at-tail placement
	// policy §3.1 critiques (and its clustering exploits). Forces a
	// single heap insert shard (one global tail).
	WithAppendOnlyHeap = core.WithAppendOnlyHeap
	// WithHeapFillFactor reserves 1−ff of each heap page for in-place
	// update headroom and the §2.2 join cache.
	WithHeapFillFactor = core.WithHeapFillFactor
	// WithHeapInsertShards sets a table's heap insert shard count —
	// the parallel-ingest knob (0 = automatic; 1 = the classic
	// single-mutex insert path; see Options.HeapInsertShards for the
	// engine-wide default).
	WithHeapInsertShards = core.WithHeapInsertShards
)

// WithResultRIDs is the Apply option (see Table.Apply) that records
// each op's resulting RID in ApplyResult.
var WithResultRIDs = core.WithResultRIDs

// Query options (see Table.Query / Index.Query).
var (
	// WithIndex routes a Table.Query through the named index (key
	// order, key bounds).
	WithIndex = core.WithIndex
	// WithKeyRange bounds an index query to lo ≤ key < hi (nil =
	// unbounded; bounds may be key-field prefixes).
	WithKeyRange = core.WithKeyRange
	// WithPrefix bounds an index query to keys whose leading fields
	// equal the given values.
	WithPrefix = core.WithPrefix
	// WithProjection restricts rows to the named fields; projections
	// covered by key + cached fields are answered from the index cache.
	WithProjection = core.WithProjection
	// WithLimit stops the cursor after n rows.
	WithLimit = core.WithLimit
	// WithReverse iterates in descending key (or reverse heap) order.
	WithReverse = core.WithReverse
	// WithCachePolicy selects CacheFirst (default) or HeapOnly.
	WithCachePolicy = core.WithCachePolicy
	// WithFilter adds pushed-down filters (conjunction). On index
	// queries, key-field filters evaluate on decoded key bytes and
	// cached-field filters on §2.1 cache payloads — rejected rows never
	// touch the heap.
	WithFilter = core.WithFilter
	// WithParallel executes an index range scan as per-subtree segments
	// on n workers with vectorized row blocks (n ≤ 1 = serial).
	WithParallel = core.WithParallel
	// WithMergeMode picks MergeOrdered (loser-tree, global key order,
	// the default) or MergeUnordered (channel fan-in, max throughput)
	// for parallel scans.
	WithMergeMode = core.WithMergeMode
)

// Filter is one pushed-down field comparison for WithFilter. NULL never
// matches, including CmpNe.
type Filter = core.Filter

// CmpOp is a Filter's comparison operator.
type CmpOp = core.CmpOp

// Comparison operators for Filter.
const (
	CmpEq = core.CmpEq
	CmpNe = core.CmpNe
	CmpLt = core.CmpLt
	CmpLe = core.CmpLe
	CmpGt = core.CmpGt
	CmpGe = core.CmpGe
)

// MergeMode selects how a parallel query's segment streams combine.
type MergeMode = core.MergeMode

// Merge modes for WithMergeMode.
const (
	// MergeOrdered serves rows in global key order (loser-tree merge).
	MergeOrdered = core.MergeOrdered
	// MergeUnordered interleaves segment blocks as workers finish them.
	MergeUnordered = core.MergeUnordered
)

// AggOp is a simple aggregate operator for Table.Aggregate /
// Index.Aggregate.
type AggOp = core.AggOp

// Aggregate operators.
const (
	AggCount = core.AggCount
	AggSum   = core.AggSum
	AggMin   = core.AggMin
	AggMax   = core.AggMax
)

// AggSpec names one aggregate: an operator and the field it folds
// (empty for count(*)).
type AggSpec = core.AggSpec

// AggResult is an Aggregate call's outcome: one value per spec, the
// matched row count, and whether evaluation was pushed below the
// cursor onto key bytes and cached payloads.
type AggResult = core.AggResult

// Txn is a multi-op snapshot transaction: Engine.Begin pins a snapshot,
// Txn.Apply stages batches, Txn.Query opens snapshot-isolated cursors
// as-of the start timestamp, and Txn.Commit applies everything
// atomically under one commit timestamp (and one WAL record) after a
// first-committer-wins conflict check.
type Txn = core.Txn

// Transaction errors: ErrTxnConflict is Commit's first-committer-wins
// rejection (retry against a fresh snapshot); ErrTxnDone reports a Txn
// used after Commit or Abort.
var (
	ErrTxnConflict = core.ErrTxnConflict
	ErrTxnDone     = core.ErrTxnDone
)
