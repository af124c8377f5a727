package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// The double-write file is a format recovery reads: buffering its
// writes must not move a byte. The expected image is spelled out from
// the layout comment, with more pages than the writer's buffer holds.
func TestDWWriterBytes(t *testing.T) {
	const pageSize, pages = 4096, 100 // 400 KiB of pages through a 256 KiB buffer
	path := filepath.Join(t.TempDir(), "db.dw")
	m := &manifest{Magic: manifestMagic, Version: manifestVersion, CheckpointLSN: 42, NumPages: pages + 1}
	mdata, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}

	w, err := newDWWriter(path, m)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	want.Write(dwMagic[:])
	want.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(mdata))))
	want.Write(mdata)
	want.Write(binary.LittleEndian.AppendUint32(nil, pages))
	for i := range pages {
		page := bytes.Repeat([]byte{byte(i + 1)}, pageSize)
		id := storage.PageID(1000 + i)
		if err := w.addPage(id, page); err != nil {
			t.Fatal(err)
		}
		want.Write(binary.LittleEndian.AppendUint64(nil, uint64(id)))
		want.Write(page)
		want.Write(binary.LittleEndian.AppendUint32(nil, crc32.Checksum(page, dwCRCTable)))
	}
	want.Write(dwTrailerMagic[:])
	if err := w.commit(); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("dw file is %d bytes and differs from the %d-byte layout", len(got), want.Len())
	}
	rm, rpages, ok := readDW(path, pageSize)
	if !ok || rm.CheckpointLSN != 42 || len(rpages) != pages {
		t.Fatalf("readDW: ok=%v, %d pages", ok, len(rpages))
	}
	for i, p := range rpages {
		if p.id != storage.PageID(1000+i) || p.data[0] != byte(i+1) || p.data[pageSize-1] != byte(i+1) {
			t.Fatalf("page %d read back as id %v, first byte %#x", i, p.id, p.data[0])
		}
	}
}

// A file whose pages are still in the writer's buffer is no checkpoint:
// readDW refuses it, and abort leaves nothing behind.
func TestDWWriterAbortRemovesTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.dw")
	w, err := newDWWriter(path, &manifest{Magic: manifestMagic, Version: manifestVersion})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.addPage(7, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := readDW(path, 4096); ok {
		t.Fatal("readDW accepted a double-write file that was never committed")
	}
	cause := errors.New("disk full")
	if err := w.abort(cause); err != cause {
		t.Fatalf("abort returned %v, want its argument", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("double-write file survives abort: %v", err)
	}
}
