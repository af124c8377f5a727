package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// TestRelocatingUpdateAllocateFaultKeepsRow grows a row past its full
// page while the page the moved copy needs cannot be allocated. The
// update must fail without losing the row: the old copy stays readable
// at its RID and through its index, and the same update succeeds once
// the one-shot fault has fired.
func TestRelocatingUpdateAllocateFaultKeepsRow(t *testing.T) {
	inner, err := storage.NewMemDisk(1024)
	if err != nil {
		t.Fatal(err)
	}
	fd := storage.NewFaultDisk(inner, storage.FaultPlan{})
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 128, Disk: fd})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	tb, err := e.CreateTable("page", pagesSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	ix, err := tb.CreateIndex("by_id", []string{"page_id"})
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	var b Batch
	for i := 0; i < 40; i++ {
		b.Insert(pageRow(i))
	}
	if _, err := tb.Apply(&b); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	rid, found, err := ix.LookupRID(tuple.Int64(0))
	if err != nil || !found {
		t.Fatalf("LookupRID(0): found=%v err=%v", found, err)
	}
	want := pageRow(0)
	grown := pageRow(0)
	grown[7] = tuple.String(strings.Repeat("x", 600))

	fd.Rearm(storage.FaultPlan{Op: storage.FaultAllocate, After: 1, Mode: storage.FaultFail})
	if _, err := tb.Update(rid, grown); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("Update = %v, want the injected allocation fault", err)
	}
	if !fd.Fired() {
		t.Fatal("the update never allocated: no page was too full to take it")
	}
	check := func(how string, rid storage.RID, want tuple.Row) {
		t.Helper()
		got, err := tb.Get(rid)
		if err != nil {
			t.Fatalf("%s: Get(%v): %v", how, rid, err)
		}
		if got[7].Str != want[7].Str {
			t.Fatalf("%s: content at %v is %q, want %q", how, rid, got[7].Str, want[7].Str)
		}
		row, res, err := ix.Lookup(nil, tuple.Int64(0))
		if err != nil || !res.Found {
			t.Fatalf("%s: Lookup(0): found=%v err=%v", how, res.Found, err)
		}
		if res.RID != rid || row[7].Str != want[7].Str {
			t.Fatalf("%s: Lookup(0) at %v reads %q, want %v reading %q", how, res.RID, row[7].Str, rid, want[7].Str)
		}
	}
	check("after the failed update", rid, want)
	if tb.Rows() != 40 {
		t.Errorf("Rows = %d after the failed update, want 40", tb.Rows())
	}

	moved, err := tb.Update(rid, grown)
	if err != nil {
		t.Fatalf("Update after the fault fired: %v", err)
	}
	if moved == rid {
		t.Fatalf("the grown row stayed at %v; it cannot fit its page", rid)
	}
	check("after the retried update", moved, grown)
	if pins := e.Pool().PinnedFrames(); pins != 0 {
		t.Errorf("%d frames still pinned", pins)
	}
}
