package storage

import (
	"bytes"
	"errors"
	"testing"
)

func newFaultedMem(t *testing.T, plan FaultPlan) (*FaultDisk, *MemDisk) {
	t.Helper()
	mem, err := NewMemDisk(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	return NewFaultDisk(mem, plan), mem
}

func TestFaultDiskFailAfterN(t *testing.T) {
	fd, _ := newFaultedMem(t, FaultPlan{Op: FaultWrite, After: 3, Mode: FaultFail})
	id, err := fd.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, fd.PageSize())
	for i := range buf {
		buf[i] = 0xAB
	}
	for i := 1; i <= 2; i++ {
		if err := fd.WritePage(id, buf); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if fd.Fired() {
		t.Fatal("fault fired early")
	}
	if err := fd.WritePage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("write 3: got %v, want ErrInjected", err)
	}
	if !fd.Fired() {
		t.Fatal("fault did not report fired")
	}
	// One-shot: subsequent writes pass through.
	if err := fd.WritePage(id, buf); err != nil {
		t.Fatalf("write after fault: %v", err)
	}
}

func TestFaultDiskTornWrite(t *testing.T) {
	fd, _ := newFaultedMem(t, FaultPlan{Op: FaultWrite, After: 2, Mode: FaultTorn, Seed: 42})
	id, err := fd.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0x11}, fd.PageSize())
	if err := fd.WritePage(id, old); err != nil {
		t.Fatal(err)
	}
	hooked := false
	fd.plan.OnFault = func() { hooked = true }
	newBuf := bytes.Repeat([]byte{0x22}, fd.PageSize())
	if err := fd.WritePage(id, newBuf); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if !hooked {
		t.Fatal("OnFault hook not called")
	}
	got := make([]byte, fd.PageSize())
	if err := fd.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	// The page must be a prefix of new + suffix of old, and must differ
	// from both (a torn write, not an atomic one).
	cut := 0
	for cut < len(got) && got[cut] == 0x22 {
		cut++
	}
	for i := cut; i < len(got); i++ {
		if got[i] != 0x11 {
			t.Fatalf("byte %d = %#x, want old byte 0x11 after split at %d", i, got[i], cut)
		}
	}
	if bytes.Equal(got, old) || bytes.Equal(got, newBuf) {
		t.Fatal("torn write produced an atomic result")
	}
}

func TestFaultDiskTornDeterministic(t *testing.T) {
	split := func(seed int64) int {
		fd, _ := newFaultedMem(t, FaultPlan{Op: FaultWrite, After: 1, Mode: FaultTorn, Seed: seed})
		id, _ := fd.Allocate()
		newBuf := bytes.Repeat([]byte{0x22}, fd.PageSize())
		if err := fd.WritePage(id, newBuf); !errors.Is(err, ErrInjected) {
			t.Fatalf("got %v, want ErrInjected", err)
		}
		got := make([]byte, fd.PageSize())
		if err := fd.ReadPage(id, got); err != nil {
			t.Fatal(err)
		}
		cut := 0
		for cut < len(got) && got[cut] == 0x22 {
			cut++
		}
		return cut
	}
	if a, b := split(7), split(7); a != b {
		t.Fatalf("same seed, different splits: %d vs %d", a, b)
	}
}

func TestFaultDiskShortWrite(t *testing.T) {
	fd, _ := newFaultedMem(t, FaultPlan{Op: FaultWrite, After: 2, Mode: FaultShort})
	id, err := fd.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{0x33}, fd.PageSize())
	if err := fd.WritePage(id, old); err != nil {
		t.Fatal(err)
	}
	newBuf := bytes.Repeat([]byte{0x44}, fd.PageSize())
	if err := fd.WritePage(id, newBuf); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	got := make([]byte, fd.PageSize())
	if err := fd.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	cut := fd.PageSize() - 512
	if !bytes.Equal(got[:cut], newBuf[:cut]) {
		t.Fatal("short write did not persist the new prefix")
	}
	if !bytes.Equal(got[cut:], old[cut:]) {
		t.Fatal("short write did not preserve the old 512-byte tail")
	}
}

func TestFaultDiskSyncFault(t *testing.T) {
	fd, _ := newFaultedMem(t, FaultPlan{Op: FaultSync, After: 2, Mode: FaultFail})
	if err := fd.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fd.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if err := fd.Sync(); err != nil {
		t.Fatalf("sync after fault: %v", err)
	}
}

func TestFaultDiskAllocateFault(t *testing.T) {
	fd, _ := newFaultedMem(t, FaultPlan{Op: FaultAllocate, After: 1, Mode: FaultFail})
	if _, err := fd.Allocate(); !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if _, err := fd.Allocate(); err != nil {
		t.Fatalf("allocate after fault: %v", err)
	}
}

func TestFaultDiskUnarmedPassthrough(t *testing.T) {
	fd, _ := newFaultedMem(t, FaultPlan{})
	id, err := fd.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0x55}, fd.PageSize())
	if err := fd.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, fd.PageSize())
	if err := fd.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("passthrough write corrupted data")
	}
	if fd.Fired() {
		t.Fatal("unarmed plan fired")
	}
}

func TestSlottedPutAt(t *testing.T) {
	data := make([]byte, 512)
	p := AsSlotted(data)
	p.Init()

	// Redo onto a virgin page at a non-zero slot: directory extends with
	// dead slots.
	if err := p.PutAt(2, []byte("charlie")); err != nil {
		t.Fatal(err)
	}
	if p.NumSlots() != 3 {
		t.Fatalf("NumSlots = %d, want 3", p.NumSlots())
	}
	if _, err := p.Get(0); err == nil {
		t.Fatal("slot 0 should be dead")
	}
	got, err := p.Get(2)
	if err != nil || string(got) != "charlie" {
		t.Fatalf("Get(2) = %q, %v", got, err)
	}

	// Idempotent: same bytes, same slot → no-op, no space consumed.
	before := p.FreeSpace()
	if err := p.PutAt(2, []byte("charlie")); err != nil {
		t.Fatal(err)
	}
	if p.FreeSpace() != before {
		t.Fatal("idempotent PutAt consumed space")
	}

	// Replace: different bytes overwrite.
	if err := p.PutAt(2, []byte("charles")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(2)
	if string(got) != "charles" {
		t.Fatalf("Get(2) after replace = %q", got)
	}

	// Fill a dead slot created by Insert+Delete.
	s, err := p.Insert([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(s); err != nil {
		t.Fatal(err)
	}
	if err := p.PutAt(s, []byte("alpha-redone")); err != nil {
		t.Fatal(err)
	}
	got, _ = p.Get(s)
	if string(got) != "alpha-redone" {
		t.Fatalf("Get(%d) = %q", s, got)
	}

	// Compaction path: churn the page until PutAt must compact.
	big := bytes.Repeat([]byte{0x77}, 100)
	for i := 0; i < 3; i++ {
		if err := p.PutAt(5, big); err != nil {
			t.Fatalf("churn %d: %v", i, err)
		}
		big[0]++ // force replace, leaving a dead payload behind
	}
	got, _ = p.Get(5)
	if len(got) != 100 || got[0] != 0x79 {
		t.Fatalf("Get(5) after churn = %d bytes, first %#x", len(got), got[0])
	}

	// ErrNoSpace when the record genuinely cannot fit.
	huge := make([]byte, 1024)
	if err := p.PutAt(6, huge); err != ErrNoSpace {
		t.Fatalf("got %v, want ErrNoSpace", err)
	}

	// A refused replacement leaves the slot's old record in place.
	if err := p.PutAt(5, huge); err != ErrNoSpace {
		t.Fatalf("got %v, want ErrNoSpace", err)
	}
	got, err = p.Get(5)
	if err != nil || len(got) != 100 || got[0] != 0x79 {
		t.Fatalf("Get(5) after refused PutAt = %d bytes, %v", len(got), err)
	}

	// A replacement that fits only once its own old bytes are reclaimed
	// compacts and succeeds.
	grown := bytes.Repeat([]byte{0x55}, 100+p.FreeSpace()+p.reclaimable()-1)
	if err := p.PutAt(5, grown); err != nil {
		t.Fatalf("grow in place: %v", err)
	}
	if got, _ = p.Get(5); !bytes.Equal(got, grown) {
		t.Fatalf("Get(5) after growth = %d bytes", len(got))
	}
}
