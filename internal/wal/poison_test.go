package wal

import (
	"errors"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
)

// failingSync is the log's file with its first fsync held until release
// and then failed; later fsyncs succeed, as a retry after the kernel
// dropped the dirty pages can.
type failingSync struct {
	logFile
	entered chan struct{} // closed when the first Sync starts
	release chan struct{} // the first Sync returns once this is closed
	mu      sync.Mutex
	calls   int
}

func (f *failingSync) Sync() error {
	f.mu.Lock()
	f.calls++
	first := f.calls == 1
	f.mu.Unlock()
	if !first {
		return f.logFile.Sync()
	}
	close(f.entered)
	<-f.release
	return syscall.EIO
}

// TestFailedSyncPoisonsTheLog: a leader's fsync fails while two
// committers are parked behind it. All three get the failure; so does
// every later Commit — though the next fsync would succeed, none is even
// attempted — and every later Append. The records stay readable.
func TestFailedSyncPoisonsTheLog(t *testing.T) {
	l := openT(t, filepath.Join(t.TempDir(), "test.wal"))
	defer l.Close()
	for i := 0; i < 4; i++ {
		if _, err := l.Append(1, []byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	f := &failingSync{logFile: l.f, entered: make(chan struct{}), release: make(chan struct{})}
	l.f = f

	errs := make(chan error, 3)
	go func() { errs <- l.Commit(1) }()
	<-f.entered // the leader is inside its fsync
	for _, lsn := range []uint64{2, 3} {
		go func() { errs <- l.Commit(lsn) }()
	}
	for parked := 0; parked < 2; runtime.Gosched() {
		l.cmu.Lock()
		parked = l.parked
		l.cmu.Unlock()
	}
	close(f.release)
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, ErrPoisoned) || !errors.Is(err, syscall.EIO) {
			t.Errorf("committer %d: %v, want ErrPoisoned wrapping EIO", i, err)
		}
	}

	if err := l.Commit(4); !errors.Is(err, ErrPoisoned) {
		t.Errorf("a later Commit: %v, want ErrPoisoned", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrPoisoned) {
		t.Errorf("a later Sync: %v, want ErrPoisoned", err)
	}
	if _, err := l.Append(1, []byte("after")); !errors.Is(err, ErrPoisoned) {
		t.Errorf("a later Append: %v, want ErrPoisoned", err)
	}
	if f.calls != 1 {
		t.Errorf("%d fsyncs reached the file, want the failed one only", f.calls)
	}
	if got := l.synced.Load(); got != 0 {
		t.Errorf("SyncedLSN %d after the failed fsync, want 0", got)
	}
	if lsns, _, _ := collect(t, l, 0); len(lsns) != 4 {
		t.Errorf("Replay read %d records, want 4", len(lsns))
	}
	if st := l.Stats(); st.Appends != 4 || st.Syncs != 0 {
		t.Errorf("Stats %+v, want 4 appends and no sync", st)
	}
}
