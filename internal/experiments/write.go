package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/tuple"
)

// WriteConfig parameterizes the table-ingest experiments, driven by
// increasing goroutine counts and tracked PR-over-PR via
// BENCH_write.json: the batch, durable and txn sweeps each race two or
// three live paths over the same rows (see BatchPoint, DurablePoint,
// TxnPoint).
type WriteConfig struct {
	Goroutines []int // goroutine counts to sweep

	BatchOps   int   // table rows ingested per (goroutines, batch size) point
	BatchSizes []int // batch sizes to sweep for the Apply-vs-one-row series

	DurableOps       int // rows ingested per goroutine count of the durable sweep
	DurableBatchSize int // rows per Apply (= per WAL record) in the durable sweep

	TxnOps       int // rows ingested per goroutine count of the transaction sweep
	TxnBatchSize int // rows per transaction (and per raw Apply) in that sweep
}

// DefaultWriteConfig sweeps 1..8 writers.
func DefaultWriteConfig() WriteConfig {
	return WriteConfig{
		Goroutines: []int{1, 2, 4, 8},

		BatchOps:   60000,
		BatchSizes: []int{16, 128},

		DurableOps:       30000,
		DurableBatchSize: 64,

		TxnOps:       30000,
		TxnBatchSize: 64,
	}
}

// BatchPoint is one (goroutine count, batch size) cell of the
// Apply-vs-one-row table-ingest sweep. Both variants drive the full
// stack — encode, sharded heap, unique index — over ascending
// per-worker key ranges; the batched side goes through Table.Apply
// (shard-affine heap runs + leaf-grouped index runs), the one-row side
// through Table.Insert per row.
type BatchPoint struct {
	Goroutines       int     `json:"goroutines"`
	BatchSize        int     `json:"batch_size"`
	OneRowOpsPerSec  float64 `json:"one_row_ops_per_sec"`
	BatchedOpsPerSec float64 `json:"batched_ops_per_sec"`
	Speedup          float64 `json:"speedup"`
}

// DurablePoint is one goroutine count of the durable-ingest sweep: the
// same batched table ingest as the batch sweep, run on a file-backed
// engine under each WAL sync policy and compared with the WAL-off
// engine on the same disk.
type DurablePoint struct {
	Goroutines int `json:"goroutines"`
	// NonDurableOpsPerSec is the WAL-off FileDisk engine — the ceiling
	// the durable configurations are measured against.
	NonDurableOpsPerSec float64 `json:"nondurable_ops_per_sec"`
	// GroupCommitOpsPerSec is rows/sec under SyncGroupCommit: every
	// Apply is durable before it returns, concurrent committers share
	// one fsync.
	GroupCommitOpsPerSec float64 `json:"group_commit_ops_per_sec"`
	// OpsPerFsync is rows made durable per log fsync during the group
	// commit measurement. One Apply appends one WAL record, so this is
	// at least the batch size; leader coalescing lifts it further when
	// committers overlap.
	OpsPerFsync float64 `json:"ops_per_fsync"`
	// SyncNoneOpsPerSec is rows/sec under SyncNone: records are
	// appended (buffered) but never fsynced on the commit path, so the
	// gap to NonDurableOpsPerSec is the pure logging overhead.
	SyncNoneOpsPerSec float64 `json:"sync_none_ops_per_sec"`
}

// TxnPoint is one goroutine count of the transaction-overhead sweep:
// the same batched ascending ingest as the batch sweep, once through
// raw Table.Apply and once wrapping every batch in Begin → Txn.Apply →
// Commit. The identical workloads isolate the MVCC toll — staging,
// commit-time validation against the version store, a pre-check search
// per claimed unique key, version metadata for every written row, and
// commits serializing on the timestamp allocator.
type TxnPoint struct {
	Goroutines   int     `json:"goroutines"`
	RawOpsPerSec float64 `json:"raw_ops_per_sec"`
	TxnOpsPerSec float64 `json:"txn_ops_per_sec"`
	// Ratio is txn/raw throughput — how much of the raw batched path a
	// transactional writer keeps.
	Ratio float64 `json:"ratio"`
}

// WriteResult is the measured sweeps plus the environment and shape
// facts that matter when comparing JSON summaries across machines and
// PRs.
type WriteResult struct {
	Env
	BatchOps    int          `json:"batch_ops_per_point"`
	BatchSizes  []int        `json:"batch_sizes"`
	BatchPoints []BatchPoint `json:"batch_points"`

	DurableOps       int            `json:"durable_ops_per_point"`
	DurableBatchSize int            `json:"durable_batch_size"`
	DurablePoints    []DurablePoint `json:"durable_points"`

	TxnOps       int        `json:"txn_ops_per_point"`
	TxnBatchSize int        `json:"txn_batch_size"`
	TxnPoints    []TxnPoint `json:"txn_points"`
}

// RunWrite measures the three write sweeps at every goroutine count.
func RunWrite(cfg WriteConfig) (WriteResult, error) {
	res := WriteResult{
		Env:              currentEnv(),
		BatchOps:         cfg.BatchOps,
		BatchSizes:       cfg.BatchSizes,
		DurableOps:       cfg.DurableOps,
		DurableBatchSize: cfg.DurableBatchSize,
		TxnOps:           cfg.TxnOps,
		TxnBatchSize:     cfg.TxnBatchSize,
	}
	// The table sweeps each race two or three live paths over the same
	// rows. Best-of-3 per side: benchgate holds a floor on each pair's
	// ratio (strict for batched ≥ one-row), so each side gets enough
	// repetitions that one scheduler hiccup cannot manufacture a crossing.
	const tableReps = 3
	for _, g := range cfg.Goroutines {
		for _, size := range cfg.BatchSizes {
			perG := cfg.BatchOps / g
			best, err := bestOf(tableReps,
				ingest{g: g, perG: perG}.measure,
				ingest{g: g, perG: perG, size: size}.measure)
			if err != nil {
				return WriteResult{}, err
			}
			res.BatchPoints = append(res.BatchPoints, BatchPoint{
				Goroutines: g, BatchSize: size,
				OneRowOpsPerSec: best[0].opsPerSec, BatchedOpsPerSec: best[1].opsPerSec,
				Speedup: best[1].opsPerSec / best[0].opsPerSec})
		}
	}
	for _, g := range cfg.Goroutines {
		// Whole batches only: a partial tail batch would drag rows-per-fsync
		// below the batch size and break the gate's structural floor.
		size := cfg.DurableBatchSize
		perG := max(cfg.DurableOps/g/size, 1) * size
		best, err := bestOf(tableReps,
			ingest{g: g, perG: perG, size: size, disk: fileNoWAL}.measure,
			ingest{g: g, perG: perG, size: size, disk: fileGroupCommit}.measure,
			ingest{g: g, perG: perG, size: size, disk: fileSyncNone}.measure)
		if err != nil {
			return WriteResult{}, err
		}
		res.DurablePoints = append(res.DurablePoints, DurablePoint{
			Goroutines:          g,
			NonDurableOpsPerSec: best[0].opsPerSec, GroupCommitOpsPerSec: best[1].opsPerSec,
			OpsPerFsync: best[1].aux, SyncNoneOpsPerSec: best[2].opsPerSec})
	}
	for _, g := range cfg.Goroutines {
		perG := cfg.TxnOps / g
		best, err := bestOf(tableReps,
			ingest{g: g, perG: perG, size: cfg.TxnBatchSize}.measure,
			ingest{g: g, perG: perG, size: cfg.TxnBatchSize, txn: true}.measure)
		if err != nil {
			return WriteResult{}, err
		}
		res.TxnPoints = append(res.TxnPoints, TxnPoint{
			Goroutines: g, RawOpsPerSec: best[0].opsPerSec, TxnOpsPerSec: best[1].opsPerSec,
			Ratio: best[1].opsPerSec / best[0].opsPerSec})
	}
	return res, nil
}

// Where an ingest run's engine keeps its pages and log.
const (
	inMemory        = iota // MemDisk, no WAL (the batch and txn sweeps)
	fileNoWAL              // FileDisk, WAL disabled — the non-durable ceiling
	fileGroupCommit        // FileDisk, WAL + SyncGroupCommit (the durable default)
	fileSyncNone           // FileDisk, WAL + SyncNone (log without commit-path fsyncs)
)

// ingest is one run of the table-ingest workload the batch, durable and
// txn sweeps share: g workers each insert perG rows into a fresh
// engine+table+unique index, every worker over its own ascending key
// range (the contiguous-run shape of real ingest: log tails, monotone
// ids, time series).
type ingest struct {
	g, perG int
	size    int  // rows per Table.Apply; 0 = one Table.Insert per row
	txn     bool // stage and commit every batch as one snapshot transaction
	disk    int  // inMemory, fileNoWAL, fileGroupCommit or fileSyncNone
}

// measure returns aggregate rows/second and, as aux, rows made durable
// per log fsync (0 without a WAL).
func (in ingest) measure() (_ sample, err error) {
	opts := core.Options{BufferPoolPages: 1 << 14}
	var extra []core.EngineOption
	if in.disk != inMemory {
		dir, err := os.MkdirTemp("", "nblb-durable-bench")
		if err != nil {
			return sample{}, err
		}
		defer os.RemoveAll(dir)
		opts.Path = filepath.Join(dir, "db")
	}
	if in.disk == fileGroupCommit || in.disk == fileSyncNone {
		// The sweep measures the commit path; a large budget keeps
		// automatic checkpoints out of the timed window.
		extra = append(extra, core.WithWAL(), core.WithCheckpointEvery(1<<30))
		if in.disk == fileSyncNone {
			extra = append(extra, core.WithSyncPolicy(core.SyncNone))
		}
	}
	e, err := core.NewEngine(opts, extra...)
	if err != nil {
		return sample{}, err
	}
	defer closeEngine(e, &err)
	tb, err := e.CreateTable("ingest", batchIngestSchema())
	if err != nil {
		return sample{}, err
	}
	if _, err := tb.CreateIndex("by_id", []string{"id"}); err != nil {
		return sample{}, err
	}
	row := func(id int64) tuple.Row {
		return tuple.Row{tuple.Int64(id), tuple.Int64(id * 3), tuple.Int64(id ^ 0x5a5a)}
	}
	pre := e.WALStats() // setup DDL syncs are not the measurement
	elapsed, err := runWorkers(in.g, func(w int) error {
		base := int64(w) * int64(in.perG)
		var b core.Batch
		for n := 0; n < in.perG; {
			if in.size == 0 {
				if _, err := tb.Insert(row(base + int64(n))); err != nil {
					return err
				}
				n++
				continue
			}
			b.Reset()
			for k := 0; k < in.size && n < in.perG; k++ {
				b.Insert(row(base + int64(n)))
				n++
			}
			if !in.txn {
				if _, err := tb.Apply(&b); err != nil {
					return err
				}
				continue
			}
			tx := e.Begin()
			if _, err := tx.Apply(tb, &b); err != nil {
				tx.Abort()
				return err
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return sample{}, err
	}
	rows := float64(in.perG * in.g)
	s := sample{opsPerSec: rows / elapsed.Seconds()}
	if syncs := e.WALStats().Syncs - pre.Syncs; syncs > 0 {
		s.aux = rows / float64(syncs)
	}
	return s, nil
}

// batchIngestSchema is the fixed-width row shape of the table sweeps.
func batchIngestSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "a", Kind: tuple.KindInt64},
		tuple.Field{Name: "b", Kind: tuple.KindInt64},
	)
}

// Print renders the sweeps as tables.
func (r WriteResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Table ingest throughput, %d rows per point: batched Apply vs one-row Insert\n", r.BatchOps)
	fmt.Fprintf(w, "%12s %12s %18s %18s %10s\n",
		"goroutines", "batch size", "one-row ops/s", "batched ops/s", "speedup")
	for _, p := range r.BatchPoints {
		fmt.Fprintf(w, "%12d %12d %18.0f %18.0f %9.2f×\n",
			p.Goroutines, p.BatchSize, p.OneRowOpsPerSec, p.BatchedOpsPerSec, p.Speedup)
	}
	fmt.Fprintf(w, "\nDurable ingest throughput, %d rows per point in batches of %d, file-backed engine\n",
		r.DurableOps, r.DurableBatchSize)
	fmt.Fprintf(w, "%12s %16s %18s %14s %16s\n",
		"goroutines", "no-WAL ops/s", "group-commit ops/s", "ops/fsync", "sync-none ops/s")
	for _, p := range r.DurablePoints {
		fmt.Fprintf(w, "%12d %16.0f %18.0f %14.0f %16.0f\n",
			p.Goroutines, p.NonDurableOpsPerSec, p.GroupCommitOpsPerSec, p.OpsPerFsync, p.SyncNoneOpsPerSec)
	}
	fmt.Fprintf(w, "\nTransaction overhead, %d rows per point in transactions of %d rows\n",
		r.TxnOps, r.TxnBatchSize)
	fmt.Fprintf(w, "%12s %16s %16s %10s\n", "goroutines", "raw ops/s", "txn ops/s", "txn/raw")
	for _, p := range r.TxnPoints {
		fmt.Fprintf(w, "%12d %16.0f %16.0f %9.2f×\n", p.Goroutines, p.RawOpsPerSec, p.TxnOpsPerSec, p.Ratio)
	}
}
