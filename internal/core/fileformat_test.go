package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestVersion4FileRefused opens files the previous format wrote
// (testdata/v4: manifest version 4, whose heap pages had a 12-byte
// header with a flags and a reserved word; 512-byte pages, one table of
// 200 rows and its index): the open fails naming version 4, and leaves
// the data file and the manifest as they were.
func TestVersion4FileRefused(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"db", "db.manifest", "db.wal"} {
		data, err := os.ReadFile(filepath.Join("testdata", "v4", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := map[string][]byte{}
	for _, name := range []string{"db", "db.manifest"} {
		before[name], _ = os.ReadFile(filepath.Join(dir, name))
	}
	opts := noCheckpointOptions(dir)
	opts.PageSize = 512
	e, err := NewEngine(opts)
	if err == nil {
		e.Close()
		t.Fatal("a version-4 file opened")
	}
	if msg := err.Error(); !strings.Contains(msg, "format version 4") {
		t.Fatalf("open failed with %q; want version 4 named", msg)
	}
	for name, data := range before {
		if after, _ := os.ReadFile(filepath.Join(dir, name)); !bytes.Equal(after, data) {
			t.Fatalf("the refused open changed %s", name)
		}
	}
}
