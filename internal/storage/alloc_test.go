//go:build !race

package storage

import (
	"bytes"
	"path/filepath"
	"testing"
)

// Extending a file truncates it to its new length, which writes nothing
// and costs no allocation (a benchmark load extends the file thousands
// of times), and every page it adds still reads as zeros. (Not under
// -race: the detector changes allocation counts.)
func TestFileDiskAllocateAllocatesNothing(t *testing.T) {
	d, err := NewFileDisk(filepath.Join(t.TempDir(), "pages.db"), 256)
	if err != nil {
		t.Fatalf("NewFileDisk: %v", err)
	}
	defer d.Close()
	var last PageID
	allocate := func() {
		if last, err = d.Allocate(); err != nil {
			t.Fatalf("Allocate: %v", err)
		}
	}
	allocate()
	if n := testing.AllocsPerRun(100, allocate); n != 0 {
		t.Errorf("Allocate: %v allocs, want 0", n)
	}
	got := bytes.Repeat([]byte{0xDB}, 256)
	if err := d.ReadPage(last, got); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, make([]byte, 256)) {
		t.Errorf("page %v is not zeroed", last)
	}
}
