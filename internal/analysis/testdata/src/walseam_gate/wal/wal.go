// Package wal mimics the engine's log surface for the walseam fixture:
// a TestPoint seam and blocking-io-tagged append/sync.
package wal

// TestPoint is the crash-injection seam.
func TestPoint(name string) {}

type Log struct{}

// Append writes a record.
// nblb:blocking-io
func (l *Log) Append(b []byte) error { return nil }

// Sync fsyncs the log.
// nblb:blocking-io
func (l *Log) Sync() error { return nil }

// Disk is the page store behind the log; the tag on the interface
// method covers every call made through the interface.
type Disk interface {
	// nblb:blocking-io
	Sync() error
}
