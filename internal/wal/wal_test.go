package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openT(t *testing.T, path string) *Log {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func collect(t *testing.T, l *Log, from uint64) (lsns []uint64, typs []uint8, payloads [][]byte) {
	t.Helper()
	err := l.Replay(from, func(lsn uint64, typ uint8, payload []byte) error {
		lsns = append(lsns, lsn)
		typs = append(typs, typ)
		payloads = append(payloads, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l := openT(t, path)
	want := [][]byte{[]byte("alpha"), []byte("bravo"), {}, bytes.Repeat([]byte{0xEE}, 4096)}
	for i, p := range want {
		lsn, err := l.Append(uint8(i+1), p)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l = openT(t, path)
	defer l.Close()
	lsns, typs, payloads := collect(t, l, 0)
	if len(lsns) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(lsns), len(want))
	}
	for i := range want {
		if lsns[i] != uint64(i+1) || typs[i] != uint8(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d mismatch: lsn=%d typ=%d len=%d", i, lsns[i], typs[i], len(payloads[i]))
		}
	}
	// LSNs continue after reopen.
	lsn, err := l.Append(9, []byte("post"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != uint64(len(want)+1) {
		t.Fatalf("post-reopen lsn = %d, want %d", lsn, len(want)+1)
	}
}

func TestReplayFrom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l := openT(t, path)
	defer l.Close()
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	lsns, _, _ := collect(t, l, 7)
	if len(lsns) != 4 || lsns[0] != 7 || lsns[3] != 10 {
		t.Fatalf("Replay(7) = %v", lsns)
	}
}

func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l := openT(t, path)
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	size := l.Size()
	l.Close()

	// Chop the last record mid-frame.
	if err := os.Truncate(path, size-20); err != nil {
		t.Fatal(err)
	}
	l = openT(t, path)
	defer l.Close()
	lsns, _, _ := collect(t, l, 0)
	if len(lsns) != 4 {
		t.Fatalf("got %d records after torn tail, want 4", len(lsns))
	}
	// The torn bytes are gone from the file and appends resume cleanly.
	if lsn, err := l.Append(1, []byte("next")); err != nil || lsn != 5 {
		t.Fatalf("append after repair: lsn=%d err=%v", lsn, err)
	}
}

func TestCorruptRecordTruncatesSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l := openT(t, path)
	var offsets []int64
	for i := 0; i < 5; i++ {
		offsets = append(offsets, l.Size())
		if _, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	l.Close()

	// Flip a payload byte inside record 3 (index 2): its CRC fails, so
	// the scan must keep records 1-2 and drop 3-5.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, offsets[2]+20); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l = openT(t, path)
	defer l.Close()
	lsns, _, _ := collect(t, l, 0)
	if len(lsns) != 2 {
		t.Fatalf("got %d records after corruption, want 2", len(lsns))
	}
}

func TestTruncateTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l := openT(t, path)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	l.Sync()
	before := l.Size()
	if err := l.TruncateTo(7); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= before {
		t.Fatal("TruncateTo did not shrink the log")
	}
	lsns, _, _ := collect(t, l, 0)
	if len(lsns) != 4 || lsns[0] != 7 {
		t.Fatalf("after TruncateTo(7): %v", lsns)
	}
	// Appends continue with dense LSNs and survive reopen.
	if lsn, err := l.Append(1, []byte("x")); err != nil || lsn != 11 {
		t.Fatalf("append after truncate: lsn=%d err=%v", lsn, err)
	}
	l.Sync()
	l.Close()
	l = openT(t, path)
	defer l.Close()
	lsns, _, _ = collect(t, l, 0)
	if len(lsns) != 5 || lsns[0] != 7 || lsns[4] != 11 {
		t.Fatalf("after reopen: %v", lsns)
	}
}

func TestGroupCommitCoalescesSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l := openT(t, path)
	defer l.Close()

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				lsn, err := l.Append(1, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					errs <- err
					return
				}
				if err := l.Commit(lsn); err != nil {
					errs <- err
					return
				}
				if l.synced.Load() < lsn {
					errs <- fmt.Errorf("commit returned before lsn %d durable", lsn)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Appends != workers*perWorker {
		t.Fatalf("appends = %d, want %d", st.Appends, workers*perWorker)
	}
	if st.Syncs >= st.Appends {
		t.Fatalf("group commit did not coalesce: %d syncs for %d appends", st.Syncs, st.Appends)
	}
	t.Logf("%d appends, %d syncs (%.1f commits/fsync)", st.Appends, st.Syncs, float64(st.Appends)/float64(st.Syncs))
}

func TestTestHookSplitAppendStillValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l := openT(t, path)
	var points []string
	SetTestHook(func(name string) { points = append(points, name) })
	defer SetTestHook(nil)
	if _, err := l.Append(1, bytes.Repeat([]byte{0xAA}, 100)); err != nil {
		t.Fatal(err)
	}
	SetTestHook(nil)
	l.Sync()
	l.Close()
	l = openT(t, path)
	defer l.Close()
	lsns, _, payloads := collect(t, l, 0)
	if len(lsns) != 1 || len(payloads[0]) != 100 {
		t.Fatalf("split-write record did not survive: %d records", len(lsns))
	}
	sawPartial := false
	for _, p := range points {
		if p == "wal:append-partial" {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatalf("test hook points = %v, missing wal:append-partial", points)
	}
}

func TestBadLengthFieldStopsScan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l := openT(t, path)
	l.Append(1, []byte("good"))
	l.Sync()
	off := l.Size()
	l.Close()
	// Append garbage that claims an absurd frame length.
	f, _ := os.OpenFile(path, os.O_RDWR, 0o644)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	f.WriteAt(hdr[:], off)
	f.Close()
	l = openT(t, path)
	defer l.Close()
	lsns, _, _ := collect(t, l, 0)
	if len(lsns) != 1 {
		t.Fatalf("got %d records, want 1", len(lsns))
	}
}

// The survivors of a truncation are a byte-for-byte suffix of the old
// file, whatever mix of record sizes lay before and among them — frames
// smaller than a header read, and larger than the reader's chunk —
// and a walk over the result costs the same handful of allocations for
// 30 records as for 3,000.
func TestTruncateToKeepsTheSuffixInOnePiece(t *testing.T) {
	payload := func(i int) []byte {
		sizes := []int{0, 1, 7, 200, 5000, 40 << 10}
		return bytes.Repeat([]byte{byte(i)}, sizes[i%len(sizes)])
	}
	for _, tc := range []struct{ records, keep int }{
		{30, 1},  // nothing to drop
		{30, 17}, // the middle
		{30, 30}, // only the last record
		{30, 31}, // nothing survives
		{3000, 2999},
	} {
		path := filepath.Join(t.TempDir(), "test.wal")
		l := openT(t, path)
		var offsets []int64
		for i := 1; i <= tc.records; i++ {
			offsets = append(offsets, l.Size())
			if _, err := l.Append(uint8(i), payload(i)); err != nil {
				t.Fatal(err)
			}
		}
		offsets = append(offsets, l.Size())
		old, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1, func() {
			if err := l.TruncateTo(uint64(tc.keep)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 40 {
			t.Errorf("%d records, keep %d: TruncateTo made %.0f allocations, want a count that does not grow with the log", tc.records, tc.keep, allocs)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := old[offsets[tc.keep-1]:]; !bytes.Equal(kept, want) {
			t.Fatalf("%d records, keep %d: log is %d bytes, want the old file's last %d", tc.records, tc.keep, len(kept), len(want))
		}
		if l.Size() != int64(len(kept)) {
			t.Fatalf("Size() = %d after truncation to %d bytes", l.Size(), len(kept))
		}
		// The log goes on from there, in memory and across a reopen.
		if lsn, err := l.Append(1, []byte("next")); err != nil || lsn != uint64(tc.records+1) {
			t.Fatalf("append after truncate: lsn=%d err=%v", lsn, err)
		}
		l.Close()
		l = openT(t, path)
		lsns, typs, payloads := collect(t, l, 0)
		l.Close()
		if want := tc.records - tc.keep + 2; len(lsns) != want {
			t.Fatalf("%d records, keep %d: %d records after reopen, want %d", tc.records, tc.keep, len(lsns), want)
		}
		for j, lsn := range lsns[:len(lsns)-1] {
			if lsn != uint64(tc.keep+j) || typs[j] != uint8(lsn) || !bytes.Equal(payloads[j], payload(int(lsn))) {
				t.Fatalf("record %d after reopen: lsn %d type %d, %d payload bytes", j, lsn, typs[j], len(payloads[j]))
			}
		}
	}
}
