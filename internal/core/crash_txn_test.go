package core

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wal"
)

// Transactional extension of the crash-recovery matrix: the child
// applies the SAME per-worker workload as TestCrashChild, but every
// batch goes through an MVCC transaction split across two Apply calls
// (inserts staged first, then updates+deletes), so atomicity must hold
// across the whole transaction, not just one batch. On top of the
// base matrix's pipeline points it crashes:
//
//   - between the transaction's WAL record append and group-commit
//     fsync ("txn:appended") — the commit was never acked, so recovery
//     may or may not replay it, but never partially;
//   - mid-GC ("gc:unlinked") — a pass's trip has landed its entry
//     removals and heap frees in the pool, its record not yet appended
//     and its metas not yet tombstoned: an interrupted GC pass must
//     leave zero trace after recovery re-derives it. A pass is one trip
//     per table, so the point fires 5–6 times a run: ":4" is the late
//     kill;
//   - at checkpoint stages, now exercising version-metadata manifests.
//
// Workers also keep staging-only "poison" transactions (begun, staged,
// sometimes still open at the kill) that are never committed: recovery
// must show zero trace of them — staging is purely in-memory and the
// WAL carries only committed transactions.

// crashPoisonID is the id a worker's never-committed transaction
// stages; it must never appear after recovery.
func crashPoisonID(w int) int64 { return int64(w*crashWorkerStride + 999_999) }

// TestCrashTxnChild is re-execed by TestCrashTxnRecoveryMatrix.
func TestCrashTxnChild(t *testing.T) {
	dir := os.Getenv("NBLB_CRASH_TXN_DIR")
	if dir == "" {
		t.Skip("crash txn child: run by TestCrashTxnRecoveryMatrix")
	}
	point := os.Getenv("NBLB_CRASH_POINT")
	opts := crashOptions(dir)

	die := func() { syscall.Kill(os.Getpid(), syscall.SIGKILL) }

	if rest, ok := strings.CutPrefix(point, "data:write:"); ok {
		var n int64
		fmt.Sscanf(rest, "%d", &n)
		inner, err := storage.NewFileDisk(opts.Path, opts.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		opts.Disk = storage.NewFaultDisk(inner, storage.FaultPlan{
			Op:      storage.FaultWrite,
			After:   n,
			Mode:    storage.FaultTorn,
			Seed:    42,
			OnFault: die,
		})
	}

	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.CreateTable("t", crashSchema())
	if err != nil {
		t.Fatal(err)
	}
	byID, err := tbl.CreateIndex("by_id", []string{"id"}, WithCache("val"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_batch", []string{"batch"}, NonUnique()); err != nil {
		t.Fatal(err)
	}

	ackF, err := os.OpenFile(filepath.Join(dir, "acks"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var ackMu sync.Mutex

	if cut := strings.LastIndex(point, ":"); cut >= 0 && !strings.HasPrefix(point, "data:") {
		name, nStr := point[:cut], point[cut+1:]
		var n int64
		fmt.Sscanf(nStr, "%d", &n)
		var hits atomic.Int64
		wal.SetTestHook(func(p string) {
			if p == name && hits.Add(1) == n {
				die()
			}
		})
		defer wal.SetTestHook(nil)
	}

	var wg sync.WaitGroup
	for w := 0; w < crashWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prevRIDs [3]storage.RID
			var poison *Txn
			for b := 0; b < crashMaxBatches; b++ {
				txn := e.Begin()
				var ins Batch
				for j := 0; j < crashInsPerBatch; j++ {
					ins.Insert(crashRow(w, b, j, int64(b)))
				}
				if _, err := txn.Apply(tbl, &ins); err != nil {
					return
				}
				if b > 0 {
					var mod Batch
					mod.Update(prevRIDs[0], crashRow(w, b-1, 0, int64(-b)))
					mod.Update(prevRIDs[1], crashRow(w, b-1, 1, int64(-b)))
					mod.Delete(prevRIDs[2])
					if _, err := txn.Apply(tbl, &mod); err != nil {
						return
					}
				}
				if err := txn.Commit(); err != nil {
					// Dying on another goroutine's schedule: stop quietly.
					return
				}
				ackMu.Lock()
				fmt.Fprintf(ackF, "%d %d\n", w, b)
				ackF.Sync()
				ackMu.Unlock()

				// The next transaction's write targets: RIDs exist only
				// after commit, so look them up through the unique index.
				for i, j := range [3]int{0, 1, 7} {
					rid, found, lerr := byID.LookupRID(tuple.Int64(int64(w*crashWorkerStride + b*10 + j)))
					if lerr != nil || !found {
						return
					}
					prevRIDs[i] = rid
				}

				// Poison: keep an uncommitted staged transaction in flight
				// most of the time; cycle it so its snapshot doesn't pin the
				// GC watermark for long.
				if b%10 == 0 {
					if poison != nil {
						poison.Abort()
					}
					poison = e.Begin()
					var pb Batch
					pb.Insert(tuple.Row{
						tuple.Int64(crashPoisonID(w)),
						tuple.Int32(int32(w)),
						tuple.Int64(-1),
						tuple.Int64(-999),
					})
					if _, err := poison.Apply(tbl, &pb); err != nil {
						return
					}
				}

				if w == 0 && b%8 == 7 {
					e.RunGC()
				}
			}
			if poison != nil {
				poison.Abort()
			}
		}(w)
	}
	wg.Wait()
	e.Close()
}

func TestCrashTxnRecoveryMatrix(t *testing.T) {
	if os.Getenv("NBLB_CRASH_TXN_DIR") != "" || os.Getenv("NBLB_CRASH_DIR") != "" {
		t.Skip("inside crash child")
	}
	if testing.Short() {
		t.Skip("crash matrix re-execs the test binary per point")
	}
	points := []string{
		"txn:appended:1",
		"txn:appended:10",
		"txn:appended:40",
		"wal:append:5",
		"wal:synced:3",
		"ckpt:manifest:1",
		"ckpt:truncated:1",
		"gc:unlinked:1",
		"gc:unlinked:4",
		"data:write:5",
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range points {
		point := point
		t.Run(strings.ReplaceAll(point, ":", "_"), func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(bin, "-test.run", "^TestCrashTxnChild$")
			cmd.Env = append(os.Environ(),
				"NBLB_CRASH_TXN_DIR="+dir,
				"NBLB_CRASH_POINT="+point,
			)
			out, runErr := cmd.CombinedOutput()
			killed := false
			if ee, ok := runErr.(*exec.ExitError); ok {
				if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
					killed = true
				}
			}
			if runErr != nil && !killed {
				t.Fatalf("child failed (not SIGKILL): %v\n%s", runErr, out)
			}
			if !killed {
				t.Logf("point %s never fired; child completed — verifying anyway", point)
			}
			// The base contract is identical: per-worker prefix of WHOLE
			// transactions, heap/index agreement, integrity. Poison ids
			// fall outside every model prefix, so the "unexpected id"
			// check proves uncommitted transactions left zero trace.
			verifyCrashRecovery(t, dir)
			verifyTxnAfterRecovery(t, dir)
		})
	}
}

// verifyTxnAfterRecovery reopens the database a second time (recovery
// of a recovered store must be a no-op) and commits a transaction end
// to end.
func verifyTxnAfterRecovery(t *testing.T, dir string) {
	t.Helper()
	e, err := NewEngine(crashOptions(dir))
	if err != nil {
		t.Fatalf("second recovery failed: %v", err)
	}
	defer e.Close()
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatalf("table lost: %v", err)
	}
	clock := e.Clock()
	txn := e.Begin()
	var b Batch
	b.Insert(crashRow(crashWorkers+1, 0, 3, 11))
	if _, err := txn.Apply(tbl, &b); err != nil {
		t.Fatalf("stage after recovery: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit after recovery: %v", err)
	}
	if got := e.Clock(); got <= clock {
		t.Fatalf("clock did not advance across recovered commit: %d -> %d", clock, got)
	}
	byID := mustIndex(t, tbl, "by_id")
	row, res, err := byID.Lookup(nil, tuple.Int64(int64((crashWorkers+1)*crashWorkerStride+3)))
	if err != nil || !res.Found {
		t.Fatalf("committed row not found after recovery: found=%v err=%v", res.Found, err)
	}
	if row[3].Int != 11 {
		t.Fatalf("committed row val = %d, want 11", row[3].Int)
	}
}

// TestCrashGCRecoveryChild is re-execed twice by TestCrashGCRecovery:
// phase "build" constructs a store whose checkpoint carries live
// version history (a reader snapshot pins old versions across committed
// updates) and SIGKILLs without closing — the crash image; phase
// "recover" reopens it with a hook that kills at the gc:recovery seam,
// dying in the middle of recovery itself, right before the
// recovery-time GC sweep.
func TestCrashGCRecoveryChild(t *testing.T) {
	dir := os.Getenv("NBLB_CRASH_GC_DIR")
	if dir == "" {
		t.Skip("crash gc child: run by TestCrashGCRecovery")
	}
	die := func() { syscall.Kill(os.Getpid(), syscall.SIGKILL) }

	switch os.Getenv("NBLB_CRASH_GC_PHASE") {
	case "build":
		e, err := NewEngine(crashOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := e.CreateTable("t", crashSchema())
		if err != nil {
			t.Fatal(err)
		}
		byID, err := tbl.CreateIndex("by_id", []string{"id"}, WithCache("val"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.CreateIndex("by_batch", []string{"batch"}, NonUnique()); err != nil {
			t.Fatal(err)
		}
		txn := e.Begin()
		var ins Batch
		for j := 0; j < crashInsPerBatch; j++ {
			ins.Insert(crashRow(0, 0, j, int64(j)))
		}
		if _, err := txn.Apply(tbl, &ins); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
		// A reader snapshot pins the GC watermark below the updates that
		// follow, so the version store still holds the old row images
		// when the checkpoint manifest is written.
		reader := e.Begin()
		defer reader.Abort()
		upd := e.Begin()
		var mod Batch
		for j := 0; j < crashInsPerBatch; j++ {
			rid, found, lerr := byID.LookupRID(tuple.Int64(int64(j)))
			if lerr != nil || !found {
				t.Fatalf("build: rid lookup j=%d: found=%v err=%v", j, found, lerr)
			}
			mod.Update(rid, crashRow(0, 0, j, int64(100+j)))
		}
		if _, err := upd.Apply(tbl, &mod); err != nil {
			t.Fatal(err)
		}
		if err := upd.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		die()
	case "recover":
		wal.SetTestHook(func(p string) {
			if p == "gc:recovery" {
				die()
			}
		})
		defer wal.SetTestHook(nil)
		_, err := NewEngine(crashOptions(dir))
		t.Fatalf("gc:recovery never fired: the build phase left no version history (NewEngine err=%v)", err)
	default:
		t.Fatalf("unknown NBLB_CRASH_GC_PHASE %q", os.Getenv("NBLB_CRASH_GC_PHASE"))
	}
}

// TestCrashGCRecovery is the crash-matrix case for the gc:recovery
// seam (registered in analysis.CrashMatrixPoints): a store that dies
// in the middle of its recovery-time GC sweep must recover cleanly on
// the next open — recovery restarted over a half-recovered store is
// still recovery.
func TestCrashGCRecovery(t *testing.T) {
	if os.Getenv("NBLB_CRASH_TXN_DIR") != "" || os.Getenv("NBLB_CRASH_DIR") != "" || os.Getenv("NBLB_CRASH_GC_DIR") != "" {
		t.Skip("inside crash child")
	}
	if testing.Short() {
		t.Skip("crash matrix re-execs the test binary per point")
	}
	dir := t.TempDir()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"build", "recover"} {
		cmd := exec.Command(bin, "-test.run", "^TestCrashGCRecoveryChild$")
		cmd.Env = append(os.Environ(),
			"NBLB_CRASH_GC_DIR="+dir,
			"NBLB_CRASH_GC_PHASE="+phase,
		)
		out, runErr := cmd.CombinedOutput()
		killed := false
		if ee, ok := runErr.(*exec.ExitError); ok {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL {
				killed = true
			}
		}
		if !killed {
			t.Fatalf("phase %s did not die by SIGKILL (err=%v):\n%s", phase, runErr, out)
		}
	}
	// Third open: recovery over the mid-recovery crash image must
	// converge — updated values visible, version history flattened,
	// indexes intact.
	e, err := NewEngine(crashOptions(dir))
	if err != nil {
		t.Fatalf("recovery after mid-recovery crash failed: %v", err)
	}
	defer e.Close()
	tbl, err := e.Table("t")
	if err != nil {
		t.Fatalf("table lost: %v", err)
	}
	byID := mustIndex(t, tbl, "by_id")
	for j := 0; j < crashInsPerBatch; j++ {
		row, res, err := byID.Lookup(nil, tuple.Int64(int64(j)))
		if err != nil || !res.Found {
			t.Fatalf("row %d lost after mid-recovery crash: found=%v err=%v", j, res.Found, err)
		}
		if row[3].Int != int64(100+j) {
			t.Fatalf("row %d val = %d, want %d (committed update lost)", j, row[3].Int, 100+j)
		}
	}
	if err := byID.Tree().CheckIntegrity(); err != nil {
		t.Fatalf("by_id integrity after mid-recovery crash: %v", err)
	}
	if err := mustIndex(t, tbl, "by_batch").Tree().CheckIntegrity(); err != nil {
		t.Fatalf("by_batch integrity after mid-recovery crash: %v", err)
	}
}
