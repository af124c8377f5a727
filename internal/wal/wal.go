// Package wal implements the redo-only write-ahead log underpinning
// the engine's durability. Records are checksummed, LSN-ordered frames
// appended to a single file:
//
//	[u32 frameLen][u32 crc][u64 LSN][u8 type][payload]
//
// where frameLen counts the LSN, type, and payload bytes (the region
// the CRC-32C covers). LSNs are assigned densely by Append; a file
// therefore holds a contiguous run of LSNs and recovery detects a torn
// tail as the first frame whose length, checksum, or LSN sequencing is
// invalid, truncating the log there.
//
// The log knows nothing about record semantics — payloads are opaque
// and the type byte belongs to the caller (internal/core). What it does
// own is the commit protocol: Append is cheap (one buffered write under
// a mutex), and Commit implements group commit — concurrent committers
// park on a condition variable while one leader runs a single fsync
// covering every record appended so far, then wakes the group.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	// frameHeader is the prefix of a frame that says how long it is and
	// which record it holds: length, CRC and LSN.
	frameHeader = 4 + 4 + 8
	// frameOverhead is the on-disk size of a frame minus its payload:
	// the header and the type byte.
	frameOverhead = frameHeader + 1
	// maxFrame caps a frame so a corrupt length field cannot drive a
	// giant allocation during a recovery scan.
	maxFrame = 1 << 28
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// testHook receives named execution points ("wal:append", "wal:synced",
// ...) when installed via SetTestHook. The crash-matrix harness uses it
// to SIGKILL the process at precise pipeline stages.
var testHook atomic.Pointer[func(string)]

// SetTestHook installs (or, with nil, removes) the process-wide test
// hook. Test-only.
func SetTestHook(fn func(string)) {
	if fn == nil {
		testHook.Store(nil)
		return
	}
	testHook.Store(&fn)
}

// TestPoint invokes the test hook, if installed, with the named point.
// Exported so internal/core can mark checkpoint stages with the same
// hook the log uses for append stages.
func TestPoint(name string) {
	if fn := testHook.Load(); fn != nil {
		(*fn)(name)
	}
}

// Stats reports log activity counters.
type Stats struct {
	Appends int64 // records appended
	Syncs   int64 // fsyncs issued (group commit coalesces these)
	Bytes   int64 // current log file size
}

// ErrPoisoned is returned, wrapping the first failed fsync's error, by
// every Append, Sync and Commit after that failure. A failed fsync may
// have dropped the dirty pages it was to write, and a retry can then
// succeed without them: no later sync may vouch for records the failed
// one covered, so the log stops taking writes (fail-stop) instead of
// acking them. Replay and Stats keep working.
var ErrPoisoned = errors.New("wal: poisoned by a failed fsync; the log takes no more writes")

// logFile is what a Log needs of its file: *os.File, or a test's
// wrapper that fails on cue.
type logFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// FailWrite makes the log's after-th file write from now (1-based) fail
// with err, once, as a storage.FaultPlan arms a disk: test support for
// what a failed append does above the log.
func (l *Log) FailWrite(after int, err error) {
	l.mu.Lock()
	l.f = &faultFile{logFile: l.f, after: after, err: err}
	l.mu.Unlock()
}

// FailSync makes the log's next fsync fail with err, once, as FailWrite
// fails a write: test support for what a failed durability wait does
// above the log (the log itself is then poisoned, see ErrPoisoned).
func (l *Log) FailSync(err error) {
	l.mu.Lock()
	l.f = &faultFile{logFile: l.f, syncErr: err}
	l.mu.Unlock()
}

// faultFile is a log file armed by FailWrite or FailSync.
type faultFile struct {
	logFile
	after   int
	err     error
	syncErr error
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.after--; f.after == 0 {
		return 0, f.err
	}
	return f.logFile.WriteAt(p, off)
}

func (f *faultFile) Sync() error {
	if err := f.syncErr; err != nil {
		f.syncErr = nil
		return err
	}
	return f.logFile.Sync()
}

// Log is an append-only redo log over a single file. All methods are
// safe for concurrent use.
type Log struct {
	mu           sync.Mutex // serializes file writes, fsync, truncation; nblb:lock wal-mu
	f            logFile
	path         string
	offset       int64
	nextLSN      uint64
	lastAppended uint64
	closed       bool
	frameBuf     []byte // append scratch, reused under mu
	poison       error  // ErrPoisoned wrapping the first failed fsync; sticky

	synced  atomic.Uint64 // highest LSN known durable
	appends atomic.Int64
	syncs   atomic.Int64

	cmu     sync.Mutex // group-commit leader election; nblb:lock wal-commit-mu
	cond    *sync.Cond
	syncing bool
	parked  int // committers waiting for a leader's fsync (tests observe it)
}

// Open opens (or creates) the log at path, scans the valid record
// prefix, and truncates any torn tail so the file ends on a frame
// boundary. The returned log appends after the last valid record.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f, path: path, nextLSN: 1}
	l.cond = sync.NewCond(&l.cmu)
	if err := l.scan(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// scan walks the file from the start, validating each frame, and
// truncates the file at the first invalid one.
func (l *Log) scan() error {
	st, err := l.f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat: %w", err)
	}
	size := st.Size()
	var off int64
	var last uint64
	r := frameReader{f: l.f, size: size}
	for size-off >= frameOverhead {
		hdr, err := r.at(off, frameHeader)
		if err != nil {
			break
		}
		flen := int64(binary.LittleEndian.Uint32(hdr))
		if flen < 9 || flen > maxFrame || off+8+flen > size {
			break
		}
		frame, err := r.at(off, int(8+flen))
		if err != nil {
			break
		}
		if crc32.Checksum(frame[8:], castagnoli) != binary.LittleEndian.Uint32(frame[4:]) {
			break
		}
		lsn := binary.LittleEndian.Uint64(frame[8:])
		if last != 0 && lsn != last+1 {
			break
		}
		last = lsn
		off += 8 + flen
	}
	if off < size {
		if err := l.f.Truncate(off); err != nil {
			return fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	l.offset = off
	l.lastAppended = last
	if last > 0 {
		l.nextLSN = last + 1
	}
	// Everything that survived the scan is on disk; whether it is
	// *durable* is unknowable post-crash, but recovery replays it
	// anyway, so advertise it as synced.
	l.synced.Store(last)
	return nil
}

// Append writes one record and returns its LSN. The record is in the
// OS page cache afterwards but not durable until Sync (or a Commit
// covering the LSN) completes.
//
// nblb:blocking-io
func (l *Log) Append(typ uint8, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if l.poison != nil {
		return 0, l.poison
	}
	lsn := l.nextLSN
	if need := 8 + 9 + len(payload); cap(l.frameBuf) < need {
		l.frameBuf = make([]byte, need)
	}
	frame := l.frameBuf[:8+9+len(payload)]
	binary.LittleEndian.PutUint32(frame, uint32(9+len(payload)))
	binary.LittleEndian.PutUint64(frame[8:], lsn)
	frame[16] = typ
	copy(frame[17:], payload)
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[8:], castagnoli))
	if testHook.Load() != nil && len(frame) > 12 {
		// Split the write so a crash hook between the halves leaves a
		// torn record on disk — the tail-repair path's test surface.
		half := len(frame) / 2
		if _, err := l.f.WriteAt(frame[:half], l.offset); err != nil {
			return 0, fmt.Errorf("wal: append: %w", err)
		}
		TestPoint("wal:append-partial")
		if _, err := l.f.WriteAt(frame[half:], l.offset+int64(half)); err != nil {
			return 0, fmt.Errorf("wal: append: %w", err)
		}
	} else if _, err := l.f.WriteAt(frame, l.offset); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.offset += int64(len(frame))
	l.nextLSN++
	l.lastAppended = lsn
	l.appends.Add(1)
	TestPoint("wal:append")
	return lsn, nil
}

// Sync makes every appended record durable. Its first failure poisons
// the log (see ErrPoisoned).
//
// nblb:blocking-io
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: sync on closed log")
	}
	if l.poison != nil {
		return l.poison
	}
	target := l.lastAppended
	if err := l.f.Sync(); err != nil {
		l.poison = fmt.Errorf("%w: %w", ErrPoisoned, err)
		return l.poison
	}
	l.synced.Store(target)
	l.syncs.Add(1)
	TestPoint("wal:synced")
	return nil
}

// Commit blocks until the record at lsn is durable, using group commit:
// the first committer to arrive becomes the leader and runs one fsync
// covering every record appended so far; the rest park on a condition
// variable and are woken by the leader's broadcast. Under concurrency
// this amortizes one fsync over many commits. When the leader's fsync
// fails, the woken committers' own attempts find the log poisoned: each
// of them gets ErrPoisoned, and none is acked.
//
// nblb:blocking-io
func (l *Log) Commit(lsn uint64) error {
	if l.synced.Load() >= lsn {
		return nil
	}
	l.cmu.Lock()
	for l.synced.Load() < lsn {
		if !l.syncing {
			l.syncing = true
			l.cmu.Unlock()
			err := l.Sync()
			l.cmu.Lock()
			l.syncing = false
			l.cond.Broadcast()
			if err != nil {
				l.cmu.Unlock()
				return err
			}
			continue
		}
		l.parked++
		l.cond.Wait()
		l.parked--
	}
	l.cmu.Unlock()
	return nil
}

// Size returns the current log file size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.offset
}

// Stats returns activity counters.
func (l *Log) Stats() Stats {
	return Stats{Appends: l.appends.Load(), Syncs: l.syncs.Load(), Bytes: l.Size()}
}

// Replay calls fn for every record with LSN ≥ from, in LSN order.
// Intended for recovery (no concurrent appends). payload is a view of
// the read buffer, valid until fn returns.
func (l *Log) Replay(from uint64, fn func(lsn uint64, typ uint8, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replayLocked(from, fn)
}

func (l *Log) replayLocked(from uint64, fn func(lsn uint64, typ uint8, payload []byte) error) error {
	r := frameReader{f: l.f, size: l.offset}
	for off := int64(0); off < l.offset; {
		hdr, err := r.at(off, frameHeader)
		if err != nil {
			return fmt.Errorf("wal: replay read: %w", err)
		}
		flen := int64(binary.LittleEndian.Uint32(hdr))
		if lsn := binary.LittleEndian.Uint64(hdr[8:]); lsn >= from {
			frame, err := r.at(off, int(8+flen))
			if err != nil {
				return fmt.Errorf("wal: replay read: %w", err)
			}
			if err := fn(lsn, frame[frameHeader], frame[frameOverhead:]); err != nil {
				return err
			}
		}
		off += 8 + flen
	}
	return nil
}

// frameReader reads frames of the first size bytes of f through one
// buffer, so that walking a log costs one allocation, not one per
// record, and a record nobody wants is skipped by its header.
type frameReader struct {
	f    io.ReaderAt
	size int64
	buf  []byte // f[base : base+len(buf)]
	base int64
}

// at returns the n bytes at off, valid until the next call. A miss
// refills from off with at least readChunk bytes, so the headers of
// small records come many to a read.
func (r *frameReader) at(off int64, n int) ([]byte, error) {
	if off < r.base || off+int64(n) > r.base+int64(len(r.buf)) {
		const readChunk = 16 << 10
		want := int(min(int64(max(n, readChunk)), r.size-off))
		if want < n {
			return nil, io.ErrUnexpectedEOF
		}
		if cap(r.buf) < want {
			r.buf = make([]byte, want)
		}
		r.buf, r.base = r.buf[:want], off
		if _, err := r.f.ReadAt(r.buf, off); err != nil {
			r.buf = r.buf[:0]
			return nil, err
		}
	}
	return r.buf[off-r.base:][:n], nil
}

// TruncateTo drops every record with LSN < keep by streaming the
// survivors to a temp file and atomically renaming it over the log.
// Called after a checkpoint makes the dropped prefix redundant. LSNs
// are dense and ordered, so the survivors are a suffix of the file:
// the dropped records are walked by header only, and the suffix is
// copied in one piece.
//
// nblb:blocking-io
func (l *Log) TruncateTo(keep uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: truncate on closed log")
	}
	tmpPath := l.path + ".tmp"
	tf, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	var off int64
	r := frameReader{f: l.f, size: l.offset}
	for off < l.offset {
		hdr, err := r.at(off, frameHeader)
		if err != nil {
			tf.Close()
			return fmt.Errorf("wal: truncate read: %w", err)
		}
		if binary.LittleEndian.Uint64(hdr[8:]) >= keep {
			break
		}
		off += 8 + int64(binary.LittleEndian.Uint32(hdr))
	}
	kept, err := io.Copy(tf, io.NewSectionReader(l.f, off, l.offset-off))
	if err != nil {
		tf.Close()
		return fmt.Errorf("wal: truncate copy: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("wal: truncate close: %w", err)
	}
	TestPoint("wal:truncate-before-rename")
	if err := os.Rename(tmpPath, l.path); err != nil {
		return fmt.Errorf("wal: truncate rename: %w", err)
	}
	TestPoint("wal:truncate-after-rename")
	syncDir(filepath.Dir(l.path))
	old := l.f
	nf, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate reopen: %w", err)
	}
	old.Close()
	l.f = nf
	l.offset = kept
	return nil
}

// Close closes the log file. Pending records are not synced; callers
// that need durability sync (or checkpoint) first.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// syncDir fsyncs a directory so a rename within it is durable.
// Best-effort: some platforms reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

var _ io.Closer = (*Log)(nil)
