package main

import (
	"repro/internal/workload"
)

// opKind is one request type of the op stream.
type opKind uint8

const (
	opGet        opKind = iota // client.Get, full row
	opCovered                  // covered point read: Query + prefix + projection + limit 1
	opScan                     // 100-row covered range scan
	opInsert                   // one-op Apply: insert a fresh owned key
	opUpdate                   // one-op Apply: update the owned key nearest a zipf draw
	opUpdateLive               // one-op Apply: update a uniformly drawn live owned key
	opDelete                   // one-op Apply: delete a uniformly drawn live owned key
	opTxn                      // Begin, Query two hot keys, Apply two updates, Commit
	numOpKinds
)

// class groups op kinds into the four latencies a caller tells apart.
type class uint8

const (
	clsRead class = iota
	clsWrite
	clsScan
	clsTxn
	numClasses
)

var classNames = [numClasses]string{"read", "write", "scan", "txn"}

func (k opKind) class() class {
	switch k {
	case opGet, opCovered:
		return clsRead
	case opScan:
		return clsScan
	case opTxn:
		return clsTxn
	}
	return clsWrite
}

// op is one generated request. arg is a key id (reads, scans, zipf
// updates), a hot-set offset (transactions) or a random draw that
// picks from the connection's live list (opUpdateLive, opDelete).
type op struct {
	kind opKind
	arg  int64
}

const (
	connections = 2
	scanRows    = 100
	zipfAlpha   = 0.99
	loadBatch   = 256

	loadOrderSeed = 20110109 // CIDR 2011
)

// spec defines one workload. Shares are percentages of the op stream.
type spec struct {
	name   string
	why    string
	shares [numOpKinds]int
	// pool sizes the serving engine's buffer pool from the loaded
	// data's page counts.
	pool func(heapPages, indexPages int) int
	// spill asserts heap pages ≥ 3 × pool; otherwise the run asserts
	// that the read phase never misses the pool (read-only workloads)
	// or simply that everything fits.
	spill bool
	// checkpointBeforeRecovery works around an engine defect this
	// benchmark found: MVCC garbage collection is not WAL-logged, so a
	// row version written after a checkpoint into space GC had just
	// freed cannot be redone onto the checkpointed page image
	// ("heap: redo put ...: not enough free space in page"). Until the
	// engine is fixed, the transactional workload checkpoints first
	// and its recovery replays no WAL suffix; see README.md.
	checkpointBeforeRecovery bool
	// warmOps is the fixed warm-up length, both connections together.
	warmOps int
	// streamLen is the generated op count per connection; the stream
	// wraps if a run outlasts it.
	streamLen int
	// checkpointBytes is the WAL growth between automatic checkpoints.
	checkpointBytes int64
}

// writes reports whether the workload changes data: its acked writes
// are re-verified after a recovery from the files as the run left them.
func (s spec) writes() bool {
	for k, share := range s.shares {
		if c := opKind(k).class(); share > 0 && (c == clsWrite || c == clsTxn) {
			return true
		}
	}
	return false
}

func fitPool(heapPages, indexPages int) int { return 2 * (heapPages + indexPages) }

var specs = []spec{
	{
		name:      "point_read_fit",
		why:       "pure CPU path (client, wire, server, core, btree, buffer hit, heap, tuple); wal, storage and eviction idle, so gains there must show no change",
		shares:    [numOpKinds]int{opGet: 80, opCovered: 20},
		pool:      fitPool,
		warmOps:   100_000,
		streamLen: 1 << 20,
	},
	{
		name:      "point_read_spill",
		why:       "same ops, data and seed, pool = 1.25 x index pages: the paper's 2.1 regime where idxcache hits, pool misses and storage reads decide latency",
		shares:    [numOpKinds]int{opGet: 80, opCovered: 20},
		pool:      func(_, indexPages int) int { return indexPages + indexPages/4 },
		spill:     true,
		warmOps:   100_000,
		streamLen: 1 << 20,
	},
	{
		name:            "write_durable",
		why:             "one-op durable Apply (60% insert, 30% update, 10% delete): wal append/fsync, group commit, coalescer wait, heap insert, ApplyRun, checkpoint stalls",
		shares:          [numOpKinds]int{opInsert: 60, opUpdateLive: 30, opDelete: 10},
		pool:            fitPool,
		warmOps:         2_000,
		streamLen:       1 << 17,
		checkpointBytes: 256 << 10,
	},
	{
		name:                     "mixed_txn",
		why:                      "reads beside writes (60% Get, 10% scan, 20% update, 10% txn on a 1000-key hot set): cache invalidation, MVCC chains, GC and the commit gate contend with lookups",
		shares:                   [numOpKinds]int{opGet: 60, opScan: 10, opUpdate: 20, opTxn: 10},
		pool:                     fitPool,
		checkpointBeforeRecovery: true,
		warmOps:                  6_000,
		streamLen:                1 << 17,
		checkpointBytes:          1 << 20,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// genStream generates one connection's op stream from the seed. Keys
// are zipf ranks mapped through perm, a seed-derived permutation of
// the loaded ids, so hot keys scatter over the key space instead of
// sharing a leaf.
func genStream(s spec, seed int64, conn, rows int, perm []int) []op {
	rng := workload.NewRand(seed*1_000_003 + int64(conn)*7919 + 17)
	zipf := workload.NewZipf(rng, rows, zipfAlpha)
	var cum [numOpKinds]int
	total := 0
	for k, share := range s.shares {
		total += share
		cum[k] = total
	}
	ops := make([]op, s.streamLen)
	for i := range ops {
		r := rng.Intn(total)
		k := opKind(0)
		for r >= cum[k] {
			k++
		}
		var arg int64
		switch k {
		case opGet, opCovered, opScan, opUpdate:
			arg = int64(perm[zipf.Next()])
			// Beside transactions, plain reads stay off the hot set
			// too: a Get or scan that is not in a transaction can
			// miss a row while a commit replaces its version (see
			// README.md, Known engine defects), and no op may fail.
			if s.shares[opTxn] > 0 && arg < hotKeys {
				arg += hotKeys
			}
		case opTxn:
			arg = int64(rng.Intn(hotKeys - 1))
		default:
			arg = rng.Int63()
		}
		ops[i] = op{kind: k, arg: arg}
	}
	return ops
}
