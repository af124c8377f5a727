package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// The manifest is the engine's durable catalog: one small JSON file
// naming every table and index, their configuration, and where their
// pages live. It is rewritten atomically (tmp + rename) at every
// checkpoint and describes the on-disk state as of CheckpointLSN —
// recovery rebuilds the catalog from it and replays the WAL suffix on
// top. Its version is the file's only format version (pages name their
// kind, not a version). Version 5 moved the heap page header, so any
// other version is refused, naming it, before any page is read.
const (
	manifestMagic   = "nblb-manifest"
	manifestVersion = 5
)

type manifest struct {
	Magic         string `json:"magic"`
	Version       int    `json:"version"`
	CheckpointLSN uint64 `json:"checkpoint_lsn"`
	NumPages      uint64 `json:"num_pages"`
	// Clock is the engine's last committed transaction timestamp as of
	// the checkpoint. Recovery restores it (and advances it past any
	// replayed recTxn records) so timestamps never repeat across a crash.
	Clock  uint64          `json:"clock,omitempty"`
	Tables []manifestTable `json:"tables"`
}

// manifestTable is a table's spec and its state at the checkpoint.
type manifestTable struct {
	tableSpec
	Rows      int64    `json:"rows"`
	HeapPages []uint64 `json:"heap_pages"`
	// Layout is the packed record layout the table adopted (absent: none
	// yet, every record is in the declared layout).
	Layout  []tuple.FieldPacking `json:"layout,omitempty"`
	Indexes []manifestIndex      `json:"indexes,omitempty"`
	// Versions are the table's MVCC metas still live at checkpoint time
	// (a checkpoint can land while dead versions await GC or while a
	// snapshot pins history). Recovery reloads them, then a full GC pass
	// at watermark=clock flattens whatever no reader can see — no
	// snapshot survives a crash.
	Versions []manifestVer `json:"versions,omitempty"`
}

// manifestVer is one persisted versionMeta (RID packed).
type manifestVer struct {
	RID  uint64 `json:"rid"`
	Born uint64 `json:"born,omitempty"`
	Dead uint64 `json:"dead,omitempty"`
	Prev uint64 `json:"prev,omitempty"`
}

type manifestField struct {
	Name string `json:"name"`
	Kind uint8  `json:"kind"`
	Size int    `json:"size,omitempty"`
}

// manifestIndex is an index's spec and its tree and cache state at the
// checkpoint.
type manifestIndex struct {
	indexSpec
	Root     uint64 `json:"root"`
	Height   int    `json:"height"`
	NumKeys  int64  `json:"num_keys"`
	CacheCSN uint32 `json:"cache_csn"`
}

// writeManifestAtomic persists m at path with the classic tmp + fsync +
// rename + directory-fsync dance, so a crash leaves either the old
// manifest or the new one, never a torn mix.
func writeManifestAtomic(path string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("core: encode manifest: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDirBestEffort(filepath.Dir(path))
}

// loadManifest reads and validates the manifest at path. A missing file
// returns (nil, nil): a fresh database, not an error.
func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: parse manifest %s: %w", path, err)
	}
	if err := m.check(path); err != nil {
		return nil, err
	}
	return &m, nil
}

// check refuses a manifest this binary cannot open: another file's, or
// another format version's.
func (m *manifest) check(path string) error {
	if m.Magic != manifestMagic {
		return fmt.Errorf("core: %s is not a manifest (magic %q)", path, m.Magic)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("core: manifest %s is format version %d; this binary opens version %d only", path, m.Version, manifestVersion)
	}
	return nil
}

func syncDirBestEffort(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // platform may not support directory opens
	}
	defer d.Close()
	d.Sync() // best-effort: some filesystems reject directory fsync
	return nil
}

// Double-write checkpoint file.
//
// A checkpoint flushes dirty pages in place, which is not atomic: a
// crash mid-flush leaves the database a mix of old and new page images,
// and the WAL suffix needed to repair the old ones may already overlap
// what was flushed. The double-write file makes the checkpoint itself
// atomic. Before any in-place flush, every dirty page image plus the
// new manifest is streamed into <path>.dw and fsynced — that fsync is
// the checkpoint's commit point. Recovery finding a complete dw file
// re-applies its images (idempotent) and installs its manifest; finding
// a torn one discards it, and the no-steal buffer policy guarantees the
// main file still holds exactly the previous checkpoint's images.
//
// Layout: [8B magic][u32 manifestLen][manifest JSON]
//
//	[u32 nPages] then per page [u64 id][pageSize bytes][u32 crc]
//	[8B trailer magic]
var (
	dwMagic        = [8]byte{'n', 'b', 'l', 'b', '-', 'd', 'w', '1'}
	dwTrailerMagic = [8]byte{'n', 'b', 'l', 'b', '-', 'e', 'n', 'd'}
)

var dwCRCTable = crc32.MakeTable(crc32.Castagnoli)

// dwWriter streams a double-write file. Everything before the
// back-filled page count goes through one buffer: a checkpoint of ten
// thousand pages is a few hundred writes, not three per page, and it
// runs with the commit gate held.
type dwWriter struct {
	f      *os.File
	bw     *bufio.Writer
	path   string
	npos   int64 // offset of the page-count placeholder
	npages uint32
}

func newDWWriter(path string, m *manifest) (*dwWriter, error) {
	data, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("core: encode dw manifest: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	w := &dwWriter{f: f, bw: bufio.NewWriterSize(f, 256<<10), path: path}
	w.bw.Write(dwMagic[:]) // a bufio.Writer keeps its first error for Flush
	w.bw.Write(binary.LittleEndian.AppendUint32(w.bw.AvailableBuffer(), uint32(len(data))))
	w.bw.Write(data)
	w.npos = int64(len(dwMagic) + 4 + len(data))
	w.bw.Write([]byte{0, 0, 0, 0}) // nPages placeholder
	return w, nil
}

func (w *dwWriter) abort(err error) error {
	w.f.Close()
	os.Remove(w.path)
	return err
}

func (w *dwWriter) addPage(id storage.PageID, data []byte) error {
	// Appending to the writer's own spare room copies nothing and
	// allocates nothing.
	w.bw.Write(binary.LittleEndian.AppendUint64(w.bw.AvailableBuffer(), uint64(id)))
	w.bw.Write(data)
	_, err := w.bw.Write(binary.LittleEndian.AppendUint32(w.bw.AvailableBuffer(), crc32.Checksum(data, dwCRCTable)))
	w.npages++
	return err
}

// commit writes the trailer, back-fills the page count, and fsyncs.
// After commit returns nil the checkpoint is durable.
func (w *dwWriter) commit() error {
	w.bw.Write(dwTrailerMagic[:])
	if err := w.bw.Flush(); err != nil {
		return w.abort(err)
	}
	var nb [4]byte
	binary.LittleEndian.PutUint32(nb[:], w.npages)
	if _, err := w.f.WriteAt(nb[:], w.npos); err != nil {
		return w.abort(err)
	}
	if err := w.f.Sync(); err != nil {
		return w.abort(err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.path)
		return err
	}
	return syncDirBestEffort(filepath.Dir(w.path))
}

type dwPage struct {
	id   storage.PageID
	data []byte
}

// readDW parses the double-write file at path. ok is false for a
// missing, torn, or corrupt file — recovery then falls back to the
// previous checkpoint's on-disk state.
func readDW(path string, pageSize int) (m *manifest, pages []dwPage, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, false
	}
	defer f.Close()
	r := io.Reader(f)
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil || [8]byte(hdr[:8]) != dwMagic {
		return nil, nil, false
	}
	mlen := binary.LittleEndian.Uint32(hdr[8:])
	if mlen > 64<<20 {
		return nil, nil, false
	}
	mdata := make([]byte, mlen)
	if _, err := io.ReadFull(r, mdata); err != nil {
		return nil, nil, false
	}
	var mf manifest
	if err := json.Unmarshal(mdata, &mf); err != nil || mf.Magic != manifestMagic {
		return nil, nil, false
	}
	var nb [4]byte
	if _, err := io.ReadFull(r, nb[:]); err != nil {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(nb[:])
	if n > 1<<24 {
		return nil, nil, false
	}
	pages = make([]dwPage, 0, n)
	for i := uint32(0); i < n; i++ {
		var idb [8]byte
		if _, err := io.ReadFull(r, idb[:]); err != nil {
			return nil, nil, false
		}
		data := make([]byte, pageSize)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, nil, false
		}
		var crcb [4]byte
		if _, err := io.ReadFull(r, crcb[:]); err != nil {
			return nil, nil, false
		}
		if crc32.Checksum(data, dwCRCTable) != binary.LittleEndian.Uint32(crcb[:]) {
			return nil, nil, false
		}
		pages = append(pages, dwPage{id: storage.PageID(binary.LittleEndian.Uint64(idb[:])), data: data})
	}
	var trailer [8]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil || trailer != dwTrailerMagic {
		return nil, nil, false
	}
	return &mf, pages, true
}
