package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

func newTestFile(t *testing.T, opts ...Option) *File {
	t.Helper()
	disk, err := storage.NewMemDisk(512)
	if err != nil {
		t.Fatalf("NewMemDisk: %v", err)
	}
	pool, err := buffer.NewPool(disk, 256)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	f, err := NewFile(pool, opts...)
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	return f
}

func TestHeapInsertGet(t *testing.T) {
	f := newTestFile(t)
	rid, err := f.Insert([]byte("hello"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := f.Get(rid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got) != "hello" {
		t.Errorf("got %q", got)
	}
}

func TestHeapSpansPages(t *testing.T) {
	f := newTestFile(t)
	var rids []storage.RID
	for i := 0; i < 100; i++ {
		rid, err := f.Insert(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		rids = append(rids, rid)
	}
	if f.NumPages() < 2 {
		t.Errorf("100×100B records in 512B pages should span pages, got %d", f.NumPages())
	}
	for i, rid := range rids {
		got, err := f.Get(rid)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if len(got) != 100 || got[0] != byte(i) {
			t.Errorf("record %d corrupted", i)
		}
	}
}

func TestHeapDeleteThenSpaceReused(t *testing.T) {
	f := newTestFile(t)
	var rids []storage.RID
	for i := 0; i < 50; i++ {
		rid, _ := f.Insert(bytes.Repeat([]byte{1}, 80))
		rids = append(rids, rid)
	}
	pagesBefore := f.NumPages()
	for _, rid := range rids {
		if _, err := f.Delete(rid); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	// Re-insert: default policy refills freed space, not new pages.
	for i := 0; i < 50; i++ {
		if _, err := f.Insert(bytes.Repeat([]byte{2}, 80)); err != nil {
			t.Fatalf("re-Insert: %v", err)
		}
	}
	if f.NumPages() > pagesBefore+1 {
		t.Errorf("freed space not reused: %d pages before, %d after", pagesBefore, f.NumPages())
	}
}

func TestHeapAppendOnlyNeverRefills(t *testing.T) {
	f := newTestFile(t, AppendOnly())
	var rids []storage.RID
	for i := 0; i < 50; i++ {
		rid, _ := f.Insert(bytes.Repeat([]byte{1}, 80))
		rids = append(rids, rid)
	}
	for _, rid := range rids[:25] {
		f.Delete(rid)
	}
	pagesBefore := f.NumPages()
	last := f.Pages()[f.NumPages()-1]
	for i := 0; i < 10; i++ {
		rid, err := f.Insert(bytes.Repeat([]byte{3}, 80))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		if rid.Page < last {
			t.Errorf("append-only insert landed in old page %v", rid)
		}
	}
	if f.NumPages() < pagesBefore {
		t.Error("page count shrank")
	}
}

func TestHeapUpdateInPlaceAndRelocate(t *testing.T) {
	f := newTestFile(t)
	rid, _ := f.Insert(bytes.Repeat([]byte{1}, 50))
	// Fill the page so a growing update must relocate.
	for i := 0; i < 20; i++ {
		f.Insert(bytes.Repeat([]byte{2}, 100))
	}
	nrid, err := f.Update(rid, bytes.Repeat([]byte{9}, 40))
	if err != nil {
		t.Fatalf("shrinking update: %v", err)
	}
	if nrid != rid {
		t.Error("shrinking update should stay in place")
	}
	nrid, err = f.Update(rid, bytes.Repeat([]byte{8}, 400))
	if err != nil {
		t.Fatalf("growing update: %v", err)
	}
	if nrid == rid {
		t.Error("oversized update should relocate")
	}
	got, err := f.Get(nrid)
	if err != nil || len(got) != 400 || got[0] != 8 {
		t.Errorf("relocated record wrong: %d bytes, err=%v", len(got), err)
	}
	if _, err := f.Get(rid); err == nil {
		t.Error("old rid should be dead after relocation")
	}
}

// TestHeapRewriteKeepsTheOldCopy: a record that outgrows its page gets a
// new copy elsewhere, and the old one stays readable until it is deleted.
// Rewrite reports the old copy's RecordSum, and DeleteIf frees the slot
// only while it holds the record with that sum.
func TestHeapRewriteKeepsTheOldCopy(t *testing.T) {
	f := newTestFile(t)
	rid, _ := f.Insert(bytes.Repeat([]byte{1}, 50))
	for i := 0; i < 20; i++ {
		f.Insert(bytes.Repeat([]byte{2}, 100))
	}
	shrunk := bytes.Repeat([]byte{9}, 40)
	if to, _, err := f.Rewrite(rid, shrunk); err != nil || to != rid {
		t.Fatalf("shrinking Rewrite = %v, %v; want in place at %v", to, err, rid)
	}
	to, sum, err := f.Rewrite(rid, bytes.Repeat([]byte{8}, 400))
	if err != nil || to == rid {
		t.Fatalf("growing Rewrite = %v, %v; want a new copy away from %v", to, err, rid)
	}
	if sum != RecordSum(shrunk) {
		t.Fatalf("growing Rewrite reports sum %#x, want the old copy's %#x", sum, RecordSum(shrunk))
	}
	if got, err := f.Get(rid); err != nil || !bytes.Equal(got, shrunk) {
		t.Fatalf("old copy after the move: %v, %v", got, err)
	}
	if got, err := f.Get(to); err != nil || len(got) != 400 || got[0] != 8 {
		t.Fatalf("new copy: %d bytes, %v", len(got), err)
	}
	if err := f.DeleteIf(rid, sum+1); !errors.Is(err, storage.ErrDeleted) {
		t.Fatalf("DeleteIf with another record's sum = %v, want storage.ErrDeleted", err)
	}
	if got, err := f.Get(rid); err != nil || !bytes.Equal(got, shrunk) {
		t.Fatalf("old copy after a refused DeleteIf: %v, %v", got, err)
	}
	if err := f.DeleteIf(rid, sum); err != nil {
		t.Fatalf("freeing the old copy: %v", err)
	}
	if err := f.DeleteIf(rid, sum); !errors.Is(err, storage.ErrDeleted) {
		t.Fatalf("freeing it twice = %v, want storage.ErrDeleted", err)
	}
}

func TestHeapScan(t *testing.T) {
	f := newTestFile(t)
	want := map[string]bool{}
	for i := 0; i < 60; i++ {
		rec := fmt.Sprintf("record-%03d", i)
		if _, err := f.Insert([]byte(rec)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		want[rec] = true
	}
	got := map[string]bool{}
	err := f.Scan(func(rid storage.RID, rec []byte) bool {
		got[string(rec)] = true
		return true
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	// Early stop.
	n := 0
	f.Scan(func(rid storage.RID, rec []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestHeapStats(t *testing.T) {
	f := newTestFile(t)
	for i := 0; i < 30; i++ {
		f.Insert(bytes.Repeat([]byte{1}, 64))
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.LiveRecords != 30 {
		t.Errorf("LiveRecords = %d", st.LiveRecords)
	}
	if st.UsedBytes != 30*64 {
		t.Errorf("UsedBytes = %d", st.UsedBytes)
	}
	if st.MeanUtilization <= 0 || st.MeanUtilization > 1 {
		t.Errorf("MeanUtilization = %f", st.MeanUtilization)
	}
}

func TestHeapRejectsEmptyAndHuge(t *testing.T) {
	f := newTestFile(t)
	if _, err := f.Insert(nil); err == nil {
		t.Error("empty record should fail")
	}
	if _, err := f.Insert(make([]byte, 2000)); err == nil {
		t.Error("record larger than a page should fail")
	}
}

func TestHeapFillFactorReservesSpace(t *testing.T) {
	full := newTestFile(t)
	capped := newTestFile(t, WithFillFactor(0.6))
	for i := 0; i < 40; i++ {
		rec := bytes.Repeat([]byte{1}, 60)
		if _, err := full.Insert(rec); err != nil {
			t.Fatalf("full Insert: %v", err)
		}
		if _, err := capped.Insert(rec); err != nil {
			t.Fatalf("capped Insert: %v", err)
		}
	}
	if capped.NumPages() <= full.NumPages() {
		t.Errorf("fill factor 0.6 should spread rows over more pages: %d vs %d",
			capped.NumPages(), full.NumPages())
	}
	// Every capped page keeps roughly 40% usable space free.
	st, err := capped.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.MeanUtilization > 0.72 {
		t.Errorf("mean utilization %.2f exceeds fill factor headroom", st.MeanUtilization)
	}
	// All records still readable.
	count := 0
	capped.Scan(func(rid storage.RID, rec []byte) bool { count++; return true })
	if count != 40 {
		t.Errorf("scan found %d records", count)
	}
	// Invalid fill factors are clamped, not fatal.
	if _, err := newTestFile(t, WithFillFactor(-1)).Insert([]byte("x")); err != nil {
		t.Errorf("clamped fill factor broke inserts: %v", err)
	}
}

func TestHeapFuzzAgainstModel(t *testing.T) {
	f := newTestFile(t)
	rng := rand.New(rand.NewSource(5))
	model := map[storage.RID][]byte{}
	var live []storage.RID
	for op := 0; op < 3000; op++ {
		switch rng.Intn(4) {
		case 0, 1:
			rec := make([]byte, 1+rng.Intn(120))
			rng.Read(rec)
			rid, err := f.Insert(rec)
			if err != nil {
				t.Fatalf("op %d Insert: %v", op, err)
			}
			if _, dup := model[rid]; dup {
				t.Fatalf("op %d: rid %v reused while live", op, rid)
			}
			model[rid] = append([]byte(nil), rec...)
			live = append(live, rid)
		case 2:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			rid := live[i]
			if _, err := f.Delete(rid); err != nil {
				t.Fatalf("op %d Delete: %v", op, err)
			}
			delete(model, rid)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case 3:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			rid := live[i]
			rec := make([]byte, 1+rng.Intn(120))
			rng.Read(rec)
			nrid, err := f.Update(rid, rec)
			if err != nil {
				t.Fatalf("op %d Update: %v", op, err)
			}
			if nrid != rid {
				delete(model, rid)
				live[i] = nrid
			}
			model[nrid] = append([]byte(nil), rec...)
		}
	}
	for rid, want := range model {
		got, err := f.Get(rid)
		if err != nil {
			t.Fatalf("verify Get(%v): %v", rid, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("rid %v diverged", rid)
		}
	}
	st, _ := f.Stats()
	if st.LiveRecords != len(model) {
		t.Errorf("LiveRecords=%d model=%d", st.LiveRecords, len(model))
	}
}

// TestRedoAdoptChecksKind: redo adopts a page the log names but the file
// does not own. An unformatted page becomes a heap page; a page of any
// other kind is refused, naming the page and its kind.
func TestRedoAdoptChecksKind(t *testing.T) {
	f := newTestFile(t)
	newPage := func(kind storage.PageKind) storage.PageID {
		fr, err := f.pool.NewPage()
		if err != nil {
			t.Fatal(err)
		}
		storage.SetKind(fr.Data(), kind)
		id := fr.ID()
		f.pool.Unpin(fr, true)
		return id
	}
	fresh := newPage(storage.KindUnformatted)
	if err := f.RedoInsert(storage.RID{Page: fresh, Slot: 0}, []byte("row")); err != nil {
		t.Fatalf("redo onto an unformatted page: %v", err)
	}
	if got, err := f.Get(storage.RID{Page: fresh, Slot: 0}); err != nil || string(got) != "row" {
		t.Fatalf("adopted page reads %q (%v)", got, err)
	}
	leaf := newPage(storage.KindIndexLeaf)
	err := f.RedoPut(storage.RID{Page: leaf, Slot: 0}, []byte("row"))
	if err == nil {
		t.Fatal("redo adopted an index leaf as a heap page")
	}
	want := fmt.Sprintf("cannot adopt page %v: its kind is index leaf", leaf)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("adopt failed with %q; want it to contain %q", err, want)
	}
	if f.owns(leaf) {
		t.Fatal("the refused page joined the file")
	}
}
