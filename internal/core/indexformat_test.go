package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOldIndexPageFormatRefused reopens a data file whose index pages
// carry the previous page format's footer (0xB17C0DE7: 8-byte values in
// every cell): the open fails and says why, instead of reading 8-byte
// values at the page's width.
func TestOldIndexPageFormatRefused(t *testing.T) {
	dir := t.TempDir()
	opts := noCheckpointOptions(dir)
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	loadPacked(t, e)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(filepath.Join(dir, "db.manifest"))
	if err != nil {
		t.Fatal(err)
	}
	root := int64(m.Tables[0].Indexes[0].Root)
	f, err := os.OpenFile(opts.Path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var footer [4]byte
	at := (root+1)*int64(opts.PageSize) - int64(len(footer))
	if _, err := f.ReadAt(footer[:], at); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(footer[:]); got != 0xB17C0DE8 {
		t.Fatalf("index root %d ends in %#x, not this format's footer", root, got)
	}
	binary.LittleEndian.PutUint32(footer[:], 0xB17C0DE7)
	if _, err := f.WriteAt(footer[:], at); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	e2, err := NewEngine(opts)
	if err == nil {
		e2.Close()
		t.Fatal("a file with index pages of the old format opened")
	}
	if msg := err.Error(); !strings.Contains(msg, "not an index page of this format") || !strings.Contains(msg, "by_id") {
		t.Fatalf("open failed with %q; want the index named and its page format refused", msg)
	}
}
