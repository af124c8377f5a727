package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func newTestPage(size int) *SlottedPage {
	p := AsSlotted(make([]byte, size))
	p.Init()
	return p
}

func TestSlottedInsertGet(t *testing.T) {
	p := newTestPage(512)
	recs := [][]byte{[]byte("alpha"), []byte("bravo"), []byte("charlie")}
	var slots []uint16
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		slots = append(slots, s)
	}
	for i, s := range slots {
		got, err := p.Get(s)
		if err != nil {
			t.Fatalf("Get(%d): %v", s, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Errorf("slot %d: got %q, want %q", s, got, recs[i])
		}
	}
	if p.LiveRecords() != 3 {
		t.Errorf("LiveRecords = %d, want 3", p.LiveRecords())
	}
}

func TestSlottedDeleteAndReuse(t *testing.T) {
	p := newTestPage(512)
	s0, _ := p.Insert([]byte("first"))
	s1, err := p.Insert([]byte("second"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := p.Delete(s0); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := p.Get(s0); err == nil {
		t.Error("Get of deleted slot should fail")
	}
	if err := p.Delete(s0); err == nil {
		t.Error("double delete should fail")
	}
	// The dead slot is reused by the next insert.
	s2, err := p.Insert([]byte("third"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if s2 != s0 {
		t.Errorf("dead slot not reused: got %d, want %d", s2, s0)
	}
	got, _ := p.Get(s1)
	if !bytes.Equal(got, []byte("second")) {
		t.Error("surviving record corrupted by delete/reinsert")
	}
}

func TestSlottedNoSpace(t *testing.T) {
	p := newTestPage(128)
	if _, err := p.Insert(make([]byte, 200)); err != ErrNoSpace {
		t.Errorf("want ErrNoSpace, got %v", err)
	}
	// Fill the page, then overflow.
	for {
		_, err := p.Insert(make([]byte, 16))
		if err == ErrNoSpace {
			break
		}
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
}

func TestSlottedCompactionReclaims(t *testing.T) {
	p := newTestPage(256)
	var slots []uint16
	for i := 0; i < 5; i++ {
		s, err := p.Insert(bytes.Repeat([]byte{byte('a' + i)}, 30))
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		slots = append(slots, s)
	}
	// Delete the middle records, creating holes.
	for _, s := range slots[1:4] {
		if err := p.Delete(s); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	// This insert needs compaction to fit contiguously.
	big := bytes.Repeat([]byte{'z'}, 80)
	if _, err := p.Insert(big); err != nil {
		t.Fatalf("Insert after deletes should compact and fit: %v", err)
	}
	// Survivors still readable.
	for _, s := range []uint16{slots[0], slots[4]} {
		if _, err := p.Get(s); err != nil {
			t.Errorf("Get(%d) after compaction: %v", s, err)
		}
	}
}

// Compact against a model, on pages churned until their records lie in
// no particular order: every live record keeps its slot and its bytes,
// the records end up packed against the end of the page, everything
// between the slot directory and the first record reads as zero (the
// §2.2 join cache lives there and must never see a dead record's
// bytes), and none of it costs an allocation.
func TestSlottedCompactPacksZeroesAndAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := range 50 {
		p := newTestPage(8192)
		model := map[uint16][]byte{}
		for range 400 {
			switch op := rng.Intn(10); {
			case op < 5 || len(model) == 0:
				rec := bytes.Repeat([]byte{byte(1 + rng.Intn(255))}, rng.Intn(200)) // zero-length too
				if s, err := p.Insert(rec); err == nil {
					model[s] = rec
				}
			case op < 8:
				for s := range model {
					if err := p.Delete(s); err != nil {
						t.Fatal(err)
					}
					delete(model, s)
					break
				}
			default:
				for s := range model {
					rec := bytes.Repeat([]byte{byte(1 + rng.Intn(255))}, rng.Intn(300))
					if err := p.Update(s, rec); err == nil {
						model[s] = rec
					}
					break
				}
			}
		}
		if allocs := testing.AllocsPerRun(1, p.Compact); allocs != 0 {
			t.Fatalf("round %d: Compact of %d live records made %.0f allocations", round, len(model), allocs)
		}
		used := 0
		for s, want := range model {
			got, err := p.Get(s)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("round %d: slot %d reads %d bytes (%v) after Compact, want %d", round, s, len(got), err, len(want))
			}
			used += len(want)
		}
		if p.LiveRecords() != len(model) {
			t.Fatalf("round %d: %d live records after Compact, want %d", round, p.LiveRecords(), len(model))
		}
		lo, hi := p.FreeBounds()
		if hi != len(p.Data())-used {
			t.Fatalf("round %d: records start at %d, want them packed down to %d", round, hi, len(p.Data())-used)
		}
		if i := bytes.IndexFunc(p.Data()[lo:hi], func(r rune) bool { return r != 0 }); i >= 0 {
			t.Fatalf("round %d: free region reads %#x at byte %d of %d", round, p.Data()[lo+i], i, hi-lo)
		}
	}
}

func TestSlottedUpdateInPlaceAndGrow(t *testing.T) {
	p := newTestPage(256)
	s, _ := p.Insert([]byte("0123456789"))
	if err := p.Update(s, []byte("short")); err != nil {
		t.Fatalf("shrinking update: %v", err)
	}
	got, _ := p.Get(s)
	if string(got) != "short" {
		t.Errorf("after shrink: %q", got)
	}
	if err := p.Update(s, bytes.Repeat([]byte{'x'}, 50)); err != nil {
		t.Fatalf("growing update: %v", err)
	}
	got, _ = p.Get(s)
	if len(got) != 50 {
		t.Errorf("after grow: %d bytes", len(got))
	}
}

func TestSlottedUpdateNoSpaceRollsBack(t *testing.T) {
	p := newTestPage(128)
	s, err := p.Insert([]byte("keepme"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := p.Update(s, make([]byte, 300)); err != ErrNoSpace {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	got, err := p.Get(s)
	if err != nil || string(got) != "keepme" {
		t.Errorf("record lost after failed update: %q, %v", got, err)
	}
}

func TestSlottedRecordsIteration(t *testing.T) {
	p := newTestPage(512)
	want := map[uint16]string{}
	for i := 0; i < 6; i++ {
		rec := fmt.Sprintf("rec-%d", i)
		s, _ := p.Insert([]byte(rec))
		want[s] = rec
	}
	p.Delete(2)
	delete(want, 2)
	got := map[uint16]string{}
	p.Records(func(slot uint16, rec []byte) bool {
		got[slot] = string(rec)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("iterated %d records, want %d", len(got), len(want))
	}
	for s, r := range want {
		if got[s] != r {
			t.Errorf("slot %d: got %q, want %q", s, got[s], r)
		}
	}
}

func TestSlottedUtilization(t *testing.T) {
	p := newTestPage(1024)
	if u := p.Utilization(); u != 0 {
		t.Errorf("empty page utilization %f", u)
	}
	p.Insert(make([]byte, 500))
	u := p.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Errorf("utilization %f, want ~0.49", u)
	}
}

// TestSlottedFuzzAgainstModel runs random operations against a map
// model and checks full agreement.
func TestSlottedFuzzAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := newTestPage(2048)
	model := map[uint16][]byte{}
	for op := 0; op < 5000; op++ {
		switch rng.Intn(3) {
		case 0: // insert
			rec := make([]byte, 1+rng.Intn(64))
			rng.Read(rec)
			s, err := p.Insert(rec)
			if err == ErrNoSpace {
				continue
			}
			if err != nil {
				t.Fatalf("op %d Insert: %v", op, err)
			}
			if _, exists := model[s]; exists {
				t.Fatalf("op %d: slot %d reused while live", op, s)
			}
			model[s] = append([]byte(nil), rec...)
		case 1: // delete random live slot
			for s := range model {
				if err := p.Delete(s); err != nil {
					t.Fatalf("op %d Delete(%d): %v", op, s, err)
				}
				delete(model, s)
				break
			}
		case 2: // update random live slot
			for s := range model {
				rec := make([]byte, 1+rng.Intn(64))
				rng.Read(rec)
				err := p.Update(s, rec)
				if err == ErrNoSpace {
					break
				}
				if err != nil {
					t.Fatalf("op %d Update(%d): %v", op, s, err)
				}
				model[s] = append([]byte(nil), rec...)
				break
			}
		}
		// Periodically verify everything.
		if op%500 == 0 {
			for s, want := range model {
				got, err := p.Get(s)
				if err != nil {
					t.Fatalf("op %d verify Get(%d): %v", op, s, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("op %d: slot %d diverged", op, s)
				}
			}
			if p.LiveRecords() != len(model) {
				t.Fatalf("op %d: LiveRecords=%d model=%d", op, p.LiveRecords(), len(model))
			}
		}
	}
}

func TestSlottedKindRoundTrip(t *testing.T) {
	p := newTestPage(256)
	if k := KindOf(p.Data()); k != KindHeap {
		t.Fatalf("Init formatted a page of kind %v, want heap", k)
	}
	SetKind(p.Data(), KindIndexLeaf)
	if k := KindOf(p.Data()); k != KindIndexLeaf {
		t.Fatalf("KindOf = %v, want index leaf", k)
	}
	// Record writes, deletes and compaction must not clobber the kind.
	s, _ := p.Insert([]byte("data"))
	p.Insert([]byte("more data"))
	p.Delete(s)
	p.Compact()
	if k := KindOf(p.Data()); k != KindIndexLeaf {
		t.Fatalf("kind after record writes = %v, want index leaf", k)
	}
	p.Init()
	if k := KindOf(p.Data()); k != KindHeap {
		t.Fatalf("kind after Init = %v, want heap", k)
	}
	if got := PageKind(9).String(); got != "unknown kind 9" {
		t.Fatalf("PageKind(9) = %q", got)
	}
}
