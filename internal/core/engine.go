// Package core is the storage engine tying the substrates together:
// tables on heap files, B+Tree indexes with the Section 2.1 index cache,
// point lookups answered from the index when possible, and updates that
// keep cache consistency via the predicate log.
package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wal"
)

// Options configure an Engine.
type Options struct {
	// PageSize in bytes. Defaults to storage.DefaultPageSize.
	PageSize int
	// BufferPoolPages is the pool capacity in pages. Defaults to 4096.
	// The pool reserves BufferPoolPages × PageSize of address space
	// outside the Go heap and costs that much RSS once every page has
	// been touched; Close returns it.
	BufferPoolPages int
	// HeapInsertShards is the default heap insert shard count for
	// tables created on this engine (per-table WithHeapInsertShards
	// wins). 0 picks automatically (min(8, GOMAXPROCS)); 1 reproduces
	// the classic single-mutex heap insert path.
	HeapInsertShards int
	// Path, when non-empty, backs the engine with a file on disk;
	// otherwise an in-memory disk is used.
	Path string
	// CountIO wraps the disk in a storage.CountingDisk so experiments
	// can convert I/O counts into simulated time.
	CountIO bool
	// WAL enables write-ahead logging with crash recovery. Requires
	// Path: the log, manifest, and double-write files live beside the
	// database file (<Path>.wal, <Path>.manifest, <Path>.dw). Opening a
	// WAL engine replays any suffix a crash left behind.
	WAL bool
	// SyncPolicy selects commit durability under WAL (default
	// SyncGroupCommit). Ignored without WAL.
	SyncPolicy SyncPolicy
	// CheckpointBytes is the WAL size that triggers an automatic
	// checkpoint (default 4 MiB). Ignored without WAL.
	CheckpointBytes int64
	// Disk, when non-nil, is used instead of the Path/MemDisk default —
	// fault-injection tests wrap a storage.FaultDisk here. With WAL,
	// Path is still required for the log-side files.
	Disk storage.DiskManager
}

// EngineOption mutates Options — the facade's functional-option form.
type EngineOption func(*Options)

// WithWAL enables write-ahead logging (see Options.WAL).
func WithWAL() EngineOption {
	return func(o *Options) { o.WAL = true }
}

// WithSyncPolicy sets the commit durability policy (see SyncPolicy).
func WithSyncPolicy(p SyncPolicy) EngineOption {
	return func(o *Options) { o.SyncPolicy = p }
}

// WithCheckpointEvery sets the WAL growth budget between automatic
// checkpoints.
func WithCheckpointEvery(bytes int64) EngineOption {
	return func(o *Options) { o.CheckpointBytes = bytes }
}

// Engine is an embedded storage engine instance.
type Engine struct {
	pool    *buffer.Pool
	disk    storage.DiskManager
	counter *storage.CountingDisk // nil unless Options.CountIO

	heapShards int // default insert shard count for new tables' heaps

	// WAL state (nil/zero without Options.WAL). commitGate orders
	// mutations against checkpoints and GC: every Apply, txn commit,
	// and DDL holds it shared across mutate+log-append; a checkpoint or
	// GC pass holds it exclusively. Lock order: txnMu, then commitGate,
	// then e.mu, then t.mu, then a table's vers.mu; the log's own mutex
	// is innermost. txnMu must NEVER be acquired with commitGate held
	// (raw stamps allocate via rawStampTS before the gate): a pending
	// gate writer blocks new shared acquisitions, so gate-then-txnMu
	// deadlocks against Txn.Commit's txnMu-then-gate.
	wal          *wal.Log
	walPath      string
	manifestPath string
	dwPath       string
	syncPolicy   SyncPolicy
	ckptBytes    int64
	commitGate   sync.RWMutex // nblb:lock commitGate
	ckptMu       sync.Mutex   // serializes checkpoints; nblb:lock ckptMu
	pipePool     sync.Pool    // *pipeline stage scratch + WAL encoders, recycled across Applies

	mu     sync.RWMutex // nblb:lock engine-mu
	tables map[string]*Table

	// MVCC state (see mvcc.go and txn.go). clock is the last committed
	// transaction timestamp; txnMu serializes Txn.Commit critical
	// sections (timestamp allocation + conflict check + effects);
	// snapMu guards the active-snapshot registry the GC watermark is
	// computed from. Raw Apply never touches any of this — a workload
	// that never calls Begin pays one atomic load per visibility check
	// at most.
	clock        atomic.Uint64
	txnMu        sync.Mutex     // nblb:lock txnMu
	txnRec       []byte         // the committing transaction's recTxn payload (txnMu)
	snapMu       sync.Mutex     // nblb:lock snapMu
	snaps        map[uint64]int // startTS → live snapshot count
	deadVersions atomic.Int64   // GC backlog: versions awaiting physical removal
	gcFloor      atomic.Int64   // the backlog the last GC pass left behind
	gcPasses     atomic.Int64   // GC passes run
}

// NewEngine creates an engine with the given options. Functional
// options, when given, are applied to opts first — the facade's
// Open(Options, ...EngineOption) form.
func NewEngine(opts Options, extra ...EngineOption) (*Engine, error) {
	for _, o := range extra {
		o(&opts)
	}
	if opts.PageSize == 0 {
		opts.PageSize = storage.DefaultPageSize
	}
	if opts.BufferPoolPages == 0 {
		opts.BufferPoolPages = 4096
	}
	if opts.WAL && opts.Path == "" {
		return nil, fmt.Errorf("core: WAL requires Options.Path")
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 4 << 20
	}
	var (
		disk storage.DiskManager
		err  error
	)
	switch {
	case opts.Disk != nil:
		disk = opts.Disk
	case opts.Path != "":
		disk, err = storage.NewFileDisk(opts.Path, opts.PageSize)
	default:
		disk, err = storage.NewMemDisk(opts.PageSize)
	}
	if err != nil {
		return nil, err
	}
	e := &Engine{
		tables:     make(map[string]*Table),
		heapShards: opts.HeapInsertShards,
		syncPolicy: opts.SyncPolicy,
		ckptBytes:  opts.CheckpointBytes,
	}
	if opts.CountIO {
		e.counter = storage.NewCountingDisk(disk)
		disk = e.counter
	}
	e.disk = disk
	if e.pool, err = buffer.NewPool(disk, opts.BufferPoolPages); err != nil {
		disk.Close()
		return nil, err
	}
	if opts.WAL {
		e.walPath = opts.Path + ".wal"
		e.manifestPath = opts.Path + ".manifest"
		e.dwPath = opts.Path + ".dw"
		e.pool.SetNoSteal(true)
		if err := e.recover(); err != nil {
			if e.wal != nil {
				e.wal.Close()
			}
			e.pool.Close()
			disk.Close()
			return nil, fmt.Errorf("core: recovery: %w", err)
		}
	}
	return e, nil
}

// Pool exposes the buffer pool (stats, experiments).
func (e *Engine) Pool() *buffer.Pool { return e.pool }

// IOCounter returns the counting disk wrapper, or nil when CountIO was
// not requested.
func (e *Engine) IOCounter() *storage.CountingDisk { return e.counter }

// CreateTable registers a new table with the given schema.
func (e *Engine) CreateTable(name string, schema *tuple.Schema, opts ...TableOption) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("core: table name must not be empty")
	}
	if e.wal != nil {
		e.commitGate.RLock()
		defer e.commitGate.RUnlock()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.tables[name]; exists {
		return nil, fmt.Errorf("core: table %q already exists", name)
	}
	t, err := newTable(e, name, schema, opts...)
	if err != nil {
		return nil, err
	}
	e.tables[name] = t
	if e.wal != nil {
		rec := ddlCreateTable{
			Name:             name,
			Fields:           manifestFields(schema),
			AppendOnly:       t.cfg.appendOnly,
			HeapFillFactor:   t.cfg.heapFillFactor,
			HeapInsertShards: t.file.InsertShards(), // resolved, not the request
		}
		lsn, err := e.wal.Append(recCreateTable, encodeJSON(rec))
		if err != nil {
			delete(e.tables, name)
			return nil, err
		}
		if err := e.walCommit(lsn); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Table returns the named table, or an error.
func (e *Engine) Table(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[name]
	if !ok {
		return nil, fmt.Errorf("core: no table %q", name)
	}
	return t, nil
}

// Tables returns the table names in sorted order.
func (e *Engine) Tables() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for n := range e.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DropTable removes a table and its indexes from the catalog. Pages are
// not reclaimed (the engine has no free-page list; dropped data is
// simply unreachable), which is fine for experiment lifetimes.
func (e *Engine) DropTable(name string) error {
	if e.wal != nil {
		e.commitGate.RLock()
		defer e.commitGate.RUnlock()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.tables[name]; !ok {
		return fmt.Errorf("core: no table %q", name)
	}
	delete(e.tables, name)
	if e.wal != nil {
		lsn, err := e.wal.Append(recDropTable, []byte(name))
		if err != nil {
			return err
		}
		return e.walCommit(lsn)
	}
	return nil
}

// Restart simulates a crash/restart cycle for cache-consistency tests:
// all dirty pages flush, every frame is evicted, and each table's
// cached indexes bump their CSNidx so persisted stale cache bytes can
// never be served (the Section 2.1.2 full-invalidation path).
func (e *Engine) Restart() error {
	if e.wal != nil {
		// A checkpoint is the WAL engine's flush: it cleans every dirty
		// frame, which EvictAll below needs under the no-steal policy.
		if err := e.Checkpoint(); err != nil {
			return err
		}
	} else if err := e.pool.FlushAll(); err != nil {
		return err
	}
	if err := e.pool.EvictAll(); err != nil {
		return err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, t := range e.tables {
		for _, ix := range t.indexes {
			if ix.cache != nil {
				ix.cache.InvalidateAll()
			}
		}
	}
	return nil
}

// Close flushes and releases the engine. The disk is closed even when
// the flush (or final checkpoint) fails — resources are never leaked on
// an error path — and every failure is reported joined. The pool's page
// memory goes back to the OS here, not at the next collection; a cursor
// still open keeps it mapped and is reported as an error.
func (e *Engine) Close() error {
	if e.wal != nil {
		err := e.Checkpoint()
		return errors.Join(err, e.pool.Close(), e.wal.Close(), e.disk.Close())
	}
	return errors.Join(e.pool.FlushAll(), e.pool.Close(), e.disk.Close())
}
