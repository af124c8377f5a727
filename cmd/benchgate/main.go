// Command benchgate is the CI benchmark regression gate: it compares
// freshly generated BENCH_*.json summaries against the committed
// baselines and fails (exit 1) on a throughput regression beyond the
// tolerance, so a PR cannot silently walk back the perf trajectory the
// ROADMAP tracks.
//
//	benchgate -base . -fresh out            # gate out/BENCH_*.json against ./BENCH_*.json
//	benchgate -base . -fresh out -skip "rewrite trades scan speed for write scaling"
//
// Rules:
//
//   - Throughput (BENCH_throughput.json): per goroutine count, the
//     sharded pool's ops/sec must stay within -tolerance of baseline.
//   - Serve (BENCH_serve.json): per connection count, the coalesced
//     sweep's ops/sec within -tolerance of baseline. Self-invariants:
//     at every connection count the coalesced sweep's ops/sec must be
//     within -tolerance of the coalescer-off sweep's or above it; at
//     the highest the cross-connection coalescer must also make
//     strictly more rows durable per fsync than the coalescer-off
//     sweep, and its shared batches must actually batch (>1 op per
//     cycle); against the baseline its ops/fsync there must also stay
//     within -tolerance.
//   - Scan (BENCH_scan.json): per mode, rows/sec within -tolerance;
//     allocs/row and disk reads/pass must not grow materially (these
//     are machine-independent, so they are held tighter). The parallel
//     segmented-scan series must be present, its n=1 legs must hold
//     serial throughput (the serial-fallback tax check), and on a
//     runner with ≥4 CPUs the n=4 unordered leg must beat the serial
//     scan outright — the headline multicore claim, enforced by the
//     multicore CI leg. Per-(segments, mode) wall clock gates against
//     the baseline when GOMAXPROCS matches; allocs/row always.
//   - Write (BENCH_write.json): per goroutine count, crabbed tree
//     ops/sec and sharded-heap ops/sec within -tolerance of baseline.
//     The fresh file must also satisfy the parallel-ingest invariants
//     on its own: for the tree, no >10% single-writer regression
//     versus the in-run mutex baseline and multi-writer throughput
//     above it at ≥2 goroutines (relaxed to "no collapse" when the
//     runner has only one CPU, where parallel scaling is physically
//     impossible); for the heap, sharded-insert throughput strictly
//     at or above the reproduced single-mutex heap at every goroutine
//     count — the bucketed free-space maps give a deterministic margin
//     that holds even single-core; and for the batch-ingest series,
//     batched Table.Apply throughput at or above the one-row path at
//     every goroutine count and batch size (the leaf-grouped runs'
//     amortization is deterministic, so this too holds single-core).
//     The durable-ingest series adds two more: group commit must make
//     at least a batch's worth of rows durable per fsync at 4+
//     goroutines (one WAL record per Apply, coalesced fsyncs), and
//     SyncNone's sweep-best throughput must stay within 10% of the
//     WAL-off engine's sweep-best on the same disk (logging without
//     commit-path fsyncs is nearly free).
//
// A comparison pair is skipped (with a note) when the two files were
// measured over different workload shapes — a config change is a
// baseline refresh, not a regression. The -skip flag records a one-line
// reason for intentional tradeoffs and turns the gate green; CI wires
// it to a PR label so the reason lands in the logs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

var failures []string

func failf(format string, args ...any) {
	failures = append(failures, fmt.Sprintf(format, args...))
}

func okf(format string, args ...any) {
	fmt.Printf("  ok: %s\n", fmt.Sprintf(format, args...))
}

func notef(format string, args ...any) {
	fmt.Printf("  note: %s\n", fmt.Sprintf(format, args...))
}

func readJSON(path string, v any) (bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, json.Unmarshal(data, v)
}

func main() {
	base := flag.String("base", ".", "directory holding the committed BENCH_*.json baselines")
	fresh := flag.String("fresh", ".", "directory holding the freshly generated BENCH_*.json")
	tol := flag.Float64("tolerance", 0.20, "allowed fractional throughput regression vs baseline")
	skip := flag.String("skip", "", "skip the gate, recording this one-line reason (intentional tradeoff)")
	only := flag.String("only", "", "comma-separated subset of gates to run: throughput, scan, write, serve (empty = all)")
	flag.Parse()

	if *skip != "" {
		fmt.Printf("benchgate: SKIPPED — %s\n", *skip)
		return
	}

	sel := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			sel[name] = true
		}
	}
	run := func(name string) bool { return len(sel) == 0 || sel[name] }

	if run("throughput") {
		gateThroughput(*base, *fresh, *tol)
	}
	if run("scan") {
		gateScan(*base, *fresh, *tol)
	}
	if run("write") {
		gateWrite(*base, *fresh, *tol)
	}
	if run("serve") {
		gateServe(*base, *fresh, *tol)
	}

	if len(failures) > 0 {
		fmt.Println("benchgate: FAIL")
		for _, f := range failures {
			fmt.Printf("  regression: %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

// ratioOK reports whether fresh is within the regression tolerance of
// base (base==0 passes vacuously: nothing to regress from).
func ratioOK(freshV, baseV, tol float64) bool {
	return baseV <= 0 || freshV >= baseV*(1-tol)
}

func gateThroughput(base, fresh string, tol float64) {
	fmt.Println("throughput (BENCH_throughput.json):")
	var b, f experiments.ThroughputResult
	if !loadPair(base, fresh, "BENCH_throughput.json", &b, &f) {
		return
	}
	if b.Rows != f.Rows {
		notef("workload shape changed (%d vs %d rows) — comparison skipped; refresh the baseline", b.Rows, f.Rows)
		return
	}
	if b.GOMAXPROCS != f.GOMAXPROCS {
		// A parallel sweep's absolute ops/sec is a function of the CPU
		// count; comparing across GOMAXPROCS legs would permanently
		// redden whichever leg mismatches the committed baseline.
		notef("baseline measured at GOMAXPROCS=%d, this run at %d — comparison skipped", b.GOMAXPROCS, f.GOMAXPROCS)
		return
	}
	for _, fp := range f.Points {
		bp, ok := pointForG(b.Points, fp.Goroutines)
		if !ok {
			continue
		}
		if !ratioOK(fp.ShardedOpsPerSec, bp.ShardedOpsPerSec, tol) {
			failf("throughput g=%d: sharded %.0f ops/s vs baseline %.0f (>%.0f%% down)",
				fp.Goroutines, fp.ShardedOpsPerSec, bp.ShardedOpsPerSec, tol*100)
		} else {
			okf("g=%d sharded %.0f ops/s (baseline %.0f)", fp.Goroutines, fp.ShardedOpsPerSec, bp.ShardedOpsPerSec)
		}
	}
}

func pointForG(pts []experiments.ThroughputPoint, g int) (experiments.ThroughputPoint, bool) {
	for _, p := range pts {
		if p.Goroutines == g {
			return p, true
		}
	}
	return experiments.ThroughputPoint{}, false
}

func gateScan(base, fresh string, tol float64) {
	fmt.Println("scan (BENCH_scan.json):")
	var b, f experiments.ScanResult
	if !loadPair(base, fresh, "BENCH_scan.json", &b, &f) {
		return
	}
	if b.Rows != f.Rows {
		notef("workload shape changed (%d vs %d rows) — comparison skipped; refresh the baseline", b.Rows, f.Rows)
		return
	}
	wallClockComparable := b.GOMAXPROCS == f.GOMAXPROCS
	if !wallClockComparable {
		notef("baseline measured at GOMAXPROCS=%d, this run at %d — wall-clock comparison skipped", b.GOMAXPROCS, f.GOMAXPROCS)
	}
	for _, fp := range f.Points {
		var bp *experiments.ScanPoint
		for i := range b.Points {
			if b.Points[i].Mode == fp.Mode {
				bp = &b.Points[i]
				break
			}
		}
		if bp == nil {
			continue
		}
		if wallClockComparable {
			if !ratioOK(fp.RowsPerSec, bp.RowsPerSec, tol) {
				failf("scan %q: %.0f rows/s vs baseline %.0f (>%.0f%% down)",
					fp.Mode, fp.RowsPerSec, bp.RowsPerSec, tol*100)
			} else {
				okf("%q %.0f rows/s (baseline %.0f)", fp.Mode, fp.RowsPerSec, bp.RowsPerSec)
			}
		}
		// Machine-independent metrics are held tighter than wall clock.
		if fp.AllocsPerRow > bp.AllocsPerRow+0.5 {
			failf("scan %q: %.2f allocs/row vs baseline %.2f", fp.Mode, fp.AllocsPerRow, bp.AllocsPerRow)
		}
		if fp.DiskReadsPerPass > bp.DiskReadsPerPass*(1+tol)+1 {
			failf("scan %q: %.1f disk reads/pass vs baseline %.1f", fp.Mode, fp.DiskReadsPerPass, bp.DiskReadsPerPass)
		}
	}
	// Self-invariant of the fresh run: reverse scans must cost the same
	// leaf fetches as forward ones (doubly linked leaves). Enforced here
	// rather than inside the bench runner so the skip label covers it.
	if fwd, rev := f.DirectionSymmetry(); fwd != nil && rev != nil {
		if rev.LeafFetches != fwd.LeafFetches {
			failf("scan: reverse fetched %d leaves, forward %d — direction symmetry regressed",
				rev.LeafFetches, fwd.LeafFetches)
		} else {
			okf("reverse/forward leaf fetches symmetric (%d)", fwd.LeafFetches)
		}
	}
	gateParallelScan(b, f, tol)
}

// gateParallelScan holds the parallel segmented-scan series to its
// self-invariants (valid on any runner: all legs ran in-process against
// the same serial baseline) plus the baseline comparison where the
// machines match.
func gateParallelScan(b, f experiments.ScanResult, tol float64) {
	if len(f.Parallel) == 0 {
		failf("scan: BENCH_scan.json has no parallel series — the segmented-scan sweep must run on every PR")
		return
	}
	findPar := func(pts []experiments.ParallelScanPoint, segs int, mode string) *experiments.ParallelScanPoint {
		for i := range pts {
			if pts[i].Segments == segs && pts[i].Mode == mode {
				return &pts[i]
			}
		}
		return nil
	}
	// n=1 is the serial fallback: both merge modes must hold serial
	// throughput within the tolerance — the option must never tax a
	// query that ends up serial anyway.
	for _, mode := range []string{"ordered", "unordered"} {
		p := findPar(f.Parallel, 1, mode)
		if p == nil {
			failf("scan parallel: n=1 %s leg missing from the sweep", mode)
			continue
		}
		if !ratioOK(p.RowsPerSec, f.SerialRowsPerSec, tol) {
			failf("scan parallel n=1 %s: %.0f rows/s vs serial %.0f — the serial fallback regressed",
				mode, p.RowsPerSec, f.SerialRowsPerSec)
		} else {
			okf("parallel n=1 %s %.0f rows/s holds serial %.0f", mode, p.RowsPerSec, f.SerialRowsPerSec)
		}
	}
	// The headline claim: on a real multicore runner, 4 unordered
	// segments must beat the serial scan outright. The strict check
	// needs both GOMAXPROCS ≥ 4 *and* 4 real cores — an oversubscribed
	// container can set GOMAXPROCS=4 on one CPU, where the speedup is
	// physically impossible. The multicore CI leg satisfies both.
	if p := findPar(f.Parallel, 4, "unordered"); p == nil {
		failf("scan parallel: n=4 unordered leg missing from the sweep")
	} else if f.GOMAXPROCS >= 4 && f.NumCPU >= 4 {
		if p.SpeedupVsSerial <= 1.0 {
			failf("scan parallel n=4 unordered: %.2fx vs serial at GOMAXPROCS=%d on %d CPUs — segmented workers add no speedup",
				p.SpeedupVsSerial, f.GOMAXPROCS, f.NumCPU)
		} else {
			okf("parallel n=4 unordered %.2fx over serial at GOMAXPROCS=%d on %d CPUs",
				p.SpeedupVsSerial, f.GOMAXPROCS, f.NumCPU)
		}
	} else {
		notef("GOMAXPROCS=%d on %d CPUs: strict n=4 unordered>serial check needs ≥4 of both — skipped (multicore CI leg enforces it)",
			f.GOMAXPROCS, f.NumCPU)
	}
	// Baseline comparison per (segments, mode) leg, wall clock only when
	// the machines match; allocs/row is machine-independent and held
	// tighter, like the serial modes above.
	for i := range f.Parallel {
		fp := &f.Parallel[i]
		bp := findPar(b.Parallel, fp.Segments, fp.Mode)
		if bp == nil {
			continue
		}
		if b.GOMAXPROCS == f.GOMAXPROCS {
			if !ratioOK(fp.RowsPerSec, bp.RowsPerSec, tol) {
				failf("scan parallel n=%d %s: %.0f rows/s vs baseline %.0f (>%.0f%% down)",
					fp.Segments, fp.Mode, fp.RowsPerSec, bp.RowsPerSec, tol*100)
			} else {
				okf("parallel n=%d %s %.0f rows/s (baseline %.0f)", fp.Segments, fp.Mode, fp.RowsPerSec, bp.RowsPerSec)
			}
		}
		if fp.AllocsPerRow > bp.AllocsPerRow+0.5 {
			failf("scan parallel n=%d %s: %.2f allocs/row vs baseline %.2f",
				fp.Segments, fp.Mode, fp.AllocsPerRow, bp.AllocsPerRow)
		}
	}
}

func gateWrite(base, fresh string, tol float64) {
	fmt.Println("write (BENCH_write.json):")
	var f experiments.WriteResult
	found, err := readJSON(filepath.Join(fresh, "BENCH_write.json"), &f)
	if err != nil {
		failf("read fresh BENCH_write.json: %v", err)
		return
	}
	if !found {
		failf("fresh BENCH_write.json missing — the write bench must run on every PR")
		return
	}

	// Self-invariants of the fresh run: these compare the crabbing tree
	// with the in-run single-mutex baseline on the same machine, so
	// they are valid regardless of where the committed baseline came
	// from.
	for _, p := range f.Points {
		if p.Goroutines == 1 {
			if p.MutexOpsPerSec > 0 && p.CrabbedOpsPerSec < p.MutexOpsPerSec*0.90 {
				failf("write g=1: crabbed %.0f ops/s vs mutex %.0f — single-writer regression >10%%",
					p.CrabbedOpsPerSec, p.MutexOpsPerSec)
			} else {
				okf("g=1 crabbed %.0f ops/s vs mutex %.0f (no single-writer regression)",
					p.CrabbedOpsPerSec, p.MutexOpsPerSec)
			}
		}
	}
	bestMulti, haveMulti := 0.0, false
	for _, p := range f.Points {
		if p.Goroutines >= 2 && p.MutexOpsPerSec > 0 {
			haveMulti = true
			if s := p.CrabbedOpsPerSec / p.MutexOpsPerSec; s > bestMulti {
				bestMulti = s
			}
		}
	}
	if haveMulti {
		// One CPU cannot express parallel scaling; require no collapse
		// there, strict superiority everywhere else.
		need := 1.0
		if f.GOMAXPROCS < 2 {
			need = 0.95
			notef("GOMAXPROCS=1 runner: multi-writer check relaxed to no-collapse (≥%.2f×)", need)
		}
		if bestMulti < need {
			failf("write: best multi-writer speedup %.2f× vs mutex baseline, need ≥%.2f×", bestMulti, need)
		} else {
			okf("multi-writer speedup %.2f× over mutex baseline at ≥2 goroutines", bestMulti)
		}
	}

	// Heap-ingest self-invariants: the sharded heap (per-shard bucketed
	// free-space maps) must beat the single-mutex heap (file-wide lock
	// around a linear first-fit scan, the pre-sharding design the sweep
	// reproduces in-run) at every goroutine count. The bucketed maps
	// alone give a large deterministic margin, so this holds strictly
	// even on a single-CPU runner where lock sharding itself cannot
	// scale.
	if len(f.HeapPoints) == 0 {
		failf("write: BENCH_write.json has no heap-ingest series — the sharded-heap sweep must run on every PR")
	}
	for _, p := range f.HeapPoints {
		if p.MutexOpsPerSec <= 0 {
			continue
		}
		if s := p.ShardedOpsPerSec / p.MutexOpsPerSec; s < 1.0 {
			failf("write heap g=%d: sharded %.0f ops/s vs single-mutex %.0f (%.2f×, need ≥1.00×)",
				p.Goroutines, p.ShardedOpsPerSec, p.MutexOpsPerSec, s)
		} else {
			okf("heap g=%d sharded %.0f ops/s vs single-mutex %.0f (%.2f×)",
				p.Goroutines, p.ShardedOpsPerSec, p.MutexOpsPerSec, s)
		}
	}

	// Batch-ingest self-invariants: batched Apply (shard-affine heap
	// runs + leaf-grouped index runs) must meet or beat the one-row
	// path at every goroutine count and batch size. The amortization is
	// deterministic — fewer descents, latches, and mutex acquisitions
	// for the same work — so this holds strictly even single-core.
	if len(f.BatchPoints) == 0 {
		failf("write: BENCH_write.json has no batch-ingest series — the Apply-vs-one-row sweep must run on every PR")
	}
	for _, p := range f.BatchPoints {
		if p.OneRowOpsPerSec <= 0 {
			continue
		}
		if s := p.BatchedOpsPerSec / p.OneRowOpsPerSec; s < 1.0 {
			failf("write batch g=%d size=%d: batched %.0f ops/s vs one-row %.0f (%.2f×, need ≥1.00×)",
				p.Goroutines, p.BatchSize, p.BatchedOpsPerSec, p.OneRowOpsPerSec, s)
		} else {
			okf("batch g=%d size=%d batched %.0f ops/s vs one-row %.0f (%.2f×)",
				p.Goroutines, p.BatchSize, p.BatchedOpsPerSec, p.OneRowOpsPerSec, s)
		}
	}

	// Durable-ingest self-invariants. Group commit appends one WAL
	// record per Apply and a committer only fsyncs when its record is
	// not already durable, so fsyncs never outnumber appends and
	// rows-per-fsync is at least the batch size by construction — at 4+
	// goroutines leader coalescing must hold that floor (it typically
	// lifts well above it). SyncNone pays encoding plus a buffered
	// append and no commit-path fsync, so it must stay within 10% of
	// the WAL-off engine on the same disk.
	if len(f.DurablePoints) == 0 {
		failf("write: BENCH_write.json has no durable-ingest series — the WAL sweep must run on every PR")
	}
	var bestOff, bestNone float64
	for _, p := range f.DurablePoints {
		if p.Goroutines >= 4 {
			if p.OpsPerFsync < float64(f.DurableBatchSize) {
				failf("write durable g=%d: %.0f rows/fsync under group commit, need ≥ batch size %d",
					p.Goroutines, p.OpsPerFsync, f.DurableBatchSize)
			} else {
				okf("durable g=%d group commit %.0f rows/fsync (batch size %d)",
					p.Goroutines, p.OpsPerFsync, f.DurableBatchSize)
			}
		}
		if p.NonDurableOpsPerSec > bestOff {
			bestOff = p.NonDurableOpsPerSec
		}
		if p.SyncNoneOpsPerSec > bestNone {
			bestNone = p.SyncNoneOpsPerSec
		}
	}
	// Ceilings compare sweep-best to sweep-best: noise only ever lowers
	// a throughput sample, so the max over all goroutine counts and
	// repetitions is each configuration's demonstrated capability —
	// per-point pairing would let two independent hiccups manufacture a
	// crossing.
	if bestOff > 0 {
		if s := bestNone / bestOff; s < 0.90 {
			failf("write durable: sync-none best %.0f ops/s vs no-WAL best %.0f (%.2f×, need ≥0.90×)",
				bestNone, bestOff, s)
		} else {
			okf("durable sync-none best %.0f ops/s vs no-WAL best %.0f (%.2f×)", bestNone, bestOff, s)
		}
	}

	// Transaction-overhead self-invariants. A snapshot transaction pays
	// for staging, commit-time validation against the version store, a
	// pre-check search per claimed unique key, and version metadata for
	// every row it writes (its heap and index stages ride the raw path's
	// runs) — real costs, but bounded ones. At g=1
	// there is no txnMu contention, so if a transactional batch keeps
	// less than a quarter of raw batched throughput the commit path has
	// picked up accidental work (a lock held across I/O, per-row
	// allocation blowup, validation gone quadratic). Multi-writer points
	// are reported but not floored: commits serialize on the timestamp
	// allocator by design, so their ratio degrades with g.
	if len(f.TxnPoints) == 0 {
		failf("write: BENCH_write.json has no txn series — the txn-vs-raw sweep must run on every PR")
	}
	for _, p := range f.TxnPoints {
		if p.RawOpsPerSec <= 0 {
			continue
		}
		s := p.TxnOpsPerSec / p.RawOpsPerSec
		if p.Goroutines == 1 && s < 0.25 {
			failf("write txn g=1: txn %.0f ops/s vs raw %.0f (%.2f×, need ≥0.25×)",
				p.TxnOpsPerSec, p.RawOpsPerSec, s)
		} else {
			okf("txn g=%d txn %.0f ops/s vs raw %.0f (%.2f×)",
				p.Goroutines, p.TxnOpsPerSec, p.RawOpsPerSec, s)
		}
	}

	var b experiments.WriteResult
	found, err = readJSON(filepath.Join(base, "BENCH_write.json"), &b)
	if err != nil {
		failf("read baseline BENCH_write.json: %v", err)
		return
	}
	if !found {
		notef("no committed BENCH_write.json baseline yet — self-invariants only")
		return
	}
	if b.Preload != f.Preload || b.Ops != f.Ops || b.UpdateFrac != f.UpdateFrac {
		notef("workload shape changed — comparison skipped; refresh the baseline")
		return
	}
	if b.GOMAXPROCS != f.GOMAXPROCS {
		notef("baseline measured at GOMAXPROCS=%d, this run at %d — comparison skipped (self-invariants above still gate)", b.GOMAXPROCS, f.GOMAXPROCS)
		return
	}
	for _, fp := range f.Points {
		for _, bp := range b.Points {
			if bp.Goroutines != fp.Goroutines {
				continue
			}
			if !ratioOK(fp.CrabbedOpsPerSec, bp.CrabbedOpsPerSec, tol) {
				failf("write g=%d: crabbed %.0f ops/s vs baseline %.0f (>%.0f%% down)",
					fp.Goroutines, fp.CrabbedOpsPerSec, bp.CrabbedOpsPerSec, tol*100)
			} else {
				okf("g=%d crabbed %.0f ops/s (baseline %.0f)", fp.Goroutines, fp.CrabbedOpsPerSec, bp.CrabbedOpsPerSec)
			}
		}
	}
	if b.HeapOps != f.HeapOps || b.HeapRecordBytes != f.HeapRecordBytes || b.HeapShards != f.HeapShards {
		notef("heap workload shape changed — heap comparison skipped; refresh the baseline")
		return
	}
	for _, fp := range f.HeapPoints {
		for _, bp := range b.HeapPoints {
			if bp.Goroutines != fp.Goroutines {
				continue
			}
			if !ratioOK(fp.ShardedOpsPerSec, bp.ShardedOpsPerSec, tol) {
				failf("write heap g=%d: sharded %.0f ops/s vs baseline %.0f (>%.0f%% down)",
					fp.Goroutines, fp.ShardedOpsPerSec, bp.ShardedOpsPerSec, tol*100)
			} else {
				okf("heap g=%d sharded %.0f ops/s (baseline %.0f)", fp.Goroutines, fp.ShardedOpsPerSec, bp.ShardedOpsPerSec)
			}
		}
	}
	if b.BatchOps != f.BatchOps || !sameInts(b.BatchSizes, f.BatchSizes) {
		notef("batch workload shape changed — batch comparison skipped; refresh the baseline")
		return
	}
	for _, fp := range f.BatchPoints {
		for _, bp := range b.BatchPoints {
			if bp.Goroutines != fp.Goroutines || bp.BatchSize != fp.BatchSize {
				continue
			}
			if !ratioOK(fp.BatchedOpsPerSec, bp.BatchedOpsPerSec, tol) {
				failf("write batch g=%d size=%d: batched %.0f ops/s vs baseline %.0f (>%.0f%% down)",
					fp.Goroutines, fp.BatchSize, fp.BatchedOpsPerSec, bp.BatchedOpsPerSec, tol*100)
			} else {
				okf("batch g=%d size=%d batched %.0f ops/s (baseline %.0f)",
					fp.Goroutines, fp.BatchSize, fp.BatchedOpsPerSec, bp.BatchedOpsPerSec)
			}
			// The one-row wrappers are gated too: making batches faster
			// by slowing the single-op path would pass the batched≥one-row
			// self-invariant while regressing every existing caller.
			if !ratioOK(fp.OneRowOpsPerSec, bp.OneRowOpsPerSec, tol) {
				failf("write batch g=%d size=%d: one-row %.0f ops/s vs baseline %.0f (>%.0f%% down)",
					fp.Goroutines, fp.BatchSize, fp.OneRowOpsPerSec, bp.OneRowOpsPerSec, tol*100)
			} else {
				okf("batch g=%d size=%d one-row %.0f ops/s (baseline %.0f)",
					fp.Goroutines, fp.BatchSize, fp.OneRowOpsPerSec, bp.OneRowOpsPerSec)
			}
		}
	}
	if b.DurableOps != f.DurableOps || b.DurableBatchSize != f.DurableBatchSize || len(b.DurablePoints) == 0 {
		notef("durable workload shape changed or baseline predates the WAL — durable comparison skipped; refresh the baseline")
		return
	}
	for _, fp := range f.DurablePoints {
		for _, bp := range b.DurablePoints {
			if bp.Goroutines != fp.Goroutines {
				continue
			}
			if !ratioOK(fp.GroupCommitOpsPerSec, bp.GroupCommitOpsPerSec, tol) {
				failf("write durable g=%d: group commit %.0f ops/s vs baseline %.0f (>%.0f%% down)",
					fp.Goroutines, fp.GroupCommitOpsPerSec, bp.GroupCommitOpsPerSec, tol*100)
			} else {
				okf("durable g=%d group commit %.0f ops/s (baseline %.0f)",
					fp.Goroutines, fp.GroupCommitOpsPerSec, bp.GroupCommitOpsPerSec)
			}
		}
	}
	if b.TxnOps != f.TxnOps || b.TxnBatchSize != f.TxnBatchSize || len(b.TxnPoints) == 0 {
		notef("txn workload shape changed or baseline predates transactions — txn comparison skipped; refresh the baseline")
		return
	}
	for _, fp := range f.TxnPoints {
		for _, bp := range b.TxnPoints {
			if bp.Goroutines != fp.Goroutines {
				continue
			}
			if !ratioOK(fp.TxnOpsPerSec, bp.TxnOpsPerSec, tol) {
				failf("write txn g=%d: txn %.0f ops/s vs baseline %.0f (>%.0f%% down)",
					fp.Goroutines, fp.TxnOpsPerSec, bp.TxnOpsPerSec, tol*100)
			} else {
				okf("txn g=%d txn %.0f ops/s (baseline %.0f)",
					fp.Goroutines, fp.TxnOpsPerSec, bp.TxnOpsPerSec)
			}
		}
	}
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// loadPair reads base and fresh copies of name into b and f, reporting
// whether both exist and parsed. Missing files are notes, not failures,
// except that every gate handles its own "fresh must exist" policy.
// gateServe checks the network-serving sweep. Its load-bearing checks
// are fresh-run self-invariants — the coalescing-on and coalescing-off
// sweeps ran on the same machine in the same process, so their
// ops/fsync ratio is valid wherever the gate runs.
func gateServe(base, fresh string, tol float64) {
	fmt.Println("serve (BENCH_serve.json):")
	var f experiments.ServeResult
	found, err := readJSON(filepath.Join(fresh, "BENCH_serve.json"), &f)
	if err != nil {
		failf("read fresh BENCH_serve.json: %v", err)
		return
	}
	if !found {
		failf("fresh BENCH_serve.json missing — the serve bench must run on every PR")
		return
	}
	if len(f.Coalesced) == 0 || len(f.Direct) == 0 {
		failf("serve: BENCH_serve.json is missing a sweep (coalesced %d points, direct %d)",
			len(f.Coalesced), len(f.Direct))
		return
	}

	// Self-invariants. At every connection count coalescing must cost no
	// throughput against per-request commits (ROADMAP 4a: a lone writer's
	// cycle is a direct Apply, so there is nothing to lose below the
	// count where sharing starts to pay). At the highest count it must
	// also make strictly more rows durable per fsync, and its shared
	// batches must actually batch.
	direct := map[int]experiments.ServePoint{}
	for _, p := range f.Direct {
		direct[p.Conns] = p
	}
	for i, c := range f.Coalesced {
		d, ok := direct[c.Conns]
		if !ok {
			failf("serve: direct sweep has no point at %d conns to compare against", c.Conns)
			return
		}
		if !ratioOK(c.OpsPerSec, d.OpsPerSec, tol) {
			failf("serve conns=%d: coalesced %.0f ops/s vs direct %.0f (>%.0f%% down) — coalescing costs throughput",
				c.Conns, c.OpsPerSec, d.OpsPerSec, tol*100)
		} else {
			okf("conns=%d coalesced %.0f ops/s vs direct %.0f", c.Conns, c.OpsPerSec, d.OpsPerSec)
		}
		if i < len(f.Coalesced)-1 {
			continue
		}
		if c.OpsPerFsync <= d.OpsPerFsync {
			failf("serve conns=%d: coalesced %.1f ops/fsync vs direct %.1f — coalescing is not amortizing commits",
				c.Conns, c.OpsPerFsync, d.OpsPerFsync)
		} else {
			okf("conns=%d coalesced %.1f ops/fsync vs direct %.1f", c.Conns, c.OpsPerFsync, d.OpsPerFsync)
		}
		if c.OpsPerCycle <= 1 {
			failf("serve conns=%d: %.2f ops per coalescer cycle — shared batches are not forming", c.Conns, c.OpsPerCycle)
		} else {
			okf("conns=%d %.1f ops per coalescer cycle", c.Conns, c.OpsPerCycle)
		}
	}

	// Baseline comparison, where the shapes match.
	var b experiments.ServeResult
	foundB, err := readJSON(filepath.Join(base, "BENCH_serve.json"), &b)
	if err != nil {
		failf("read baseline BENCH_serve.json: %v", err)
		return
	}
	if !foundB {
		notef("no committed BENCH_serve.json baseline — comparison skipped")
		return
	}
	if b.OpsPerConn != f.OpsPerConn || b.BatchOps != f.BatchOps || b.ValueBytes != f.ValueBytes {
		notef("workload shape changed — comparison skipped; refresh the baseline")
		return
	}
	if b.GOMAXPROCS != f.GOMAXPROCS {
		notef("baseline measured at GOMAXPROCS=%d, this run at %d — comparison skipped", b.GOMAXPROCS, f.GOMAXPROCS)
		return
	}
	for i, fp := range f.Coalesced {
		for _, bp := range b.Coalesced {
			if bp.Conns != fp.Conns {
				continue
			}
			if !ratioOK(fp.OpsPerSec, bp.OpsPerSec, tol) {
				failf("serve conns=%d: coalesced %.0f ops/s vs baseline %.0f (>%.0f%% down)",
					fp.Conns, fp.OpsPerSec, bp.OpsPerSec, tol*100)
			} else {
				okf("conns=%d coalesced %.0f ops/s (baseline %.0f)", fp.Conns, fp.OpsPerSec, bp.OpsPerSec)
			}
			if i < len(f.Coalesced)-1 {
				continue
			}
			// How many rows share an fsync is set by the protocol, not
			// the machine: at the top count it must not erode.
			if !ratioOK(fp.OpsPerFsync, bp.OpsPerFsync, tol) {
				failf("serve conns=%d: coalesced %.1f ops/fsync vs baseline %.1f (>%.0f%% down) — amortization eroded",
					fp.Conns, fp.OpsPerFsync, bp.OpsPerFsync, tol*100)
			} else {
				okf("conns=%d coalesced %.1f ops/fsync (baseline %.1f)", fp.Conns, fp.OpsPerFsync, bp.OpsPerFsync)
			}
		}
	}
}

func loadPair(base, fresh, name string, b, f any) bool {
	foundB, err := readJSON(filepath.Join(base, name), b)
	if err != nil {
		failf("read baseline %s: %v", name, err)
		return false
	}
	foundF, err := readJSON(filepath.Join(fresh, name), f)
	if err != nil {
		failf("read fresh %s: %v", name, err)
		return false
	}
	if !foundB {
		notef("no committed %s baseline — comparison skipped", name)
		return false
	}
	if !foundF {
		failf("fresh %s missing — the bench must run on every PR", name)
		return false
	}
	return true
}
