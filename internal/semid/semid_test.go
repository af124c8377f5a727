package semid

import (
	"testing"
	"testing/quick"

	"repro/internal/wiki"
)

func TestLayoutMakeExtract(t *testing.T) {
	l, err := NewLayout(6)
	if err != nil {
		t.Fatalf("NewLayout: %v", err)
	}
	id, err := l.Make(37, 123456789)
	if err != nil {
		t.Fatalf("Make: %v", err)
	}
	if l.Partition(id) != 37 {
		t.Errorf("Partition = %d", l.Partition(id))
	}
	if l.Sequence(id) != 123456789 {
		t.Errorf("Sequence = %d", l.Sequence(id))
	}
}

func TestLayoutBounds(t *testing.T) {
	if _, err := NewLayout(0); err == nil {
		t.Error("0 bits should fail")
	}
	if _, err := NewLayout(17); err == nil {
		t.Error("17 bits should fail")
	}
	l, _ := NewLayout(4)
	if _, err := l.Make(16, 0); err == nil {
		t.Error("partition overflow should fail")
	}
	if _, err := l.Make(0, l.MaxSequence()+1); err == nil {
		t.Error("sequence overflow should fail")
	}
	if _, err := l.Make(l.MaxPartition(), l.MaxSequence()); err != nil {
		t.Errorf("max values should fit: %v", err)
	}
}

func TestPropertyLayoutRoundTrip(t *testing.T) {
	l, _ := NewLayout(8)
	f := func(part uint8, seq uint64) bool {
		seq &= l.MaxSequence()
		id, err := l.Make(uint64(part), seq)
		if err != nil {
			return false
		}
		return l.Partition(id) == uint64(part) && l.Sequence(id) == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteMovesPartition(t *testing.T) {
	l, _ := NewLayout(4)
	id, _ := l.Make(3, 999)
	moved, err := l.Rewrite(id, 12)
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	if l.Partition(moved) != 12 || l.Sequence(moved) != 999 {
		t.Errorf("moved id wrong: part=%d seq=%d", l.Partition(moved), l.Sequence(moved))
	}
}

func TestRoutersAgree(t *testing.T) {
	l, _ := NewLayout(5)
	table := NewTableRouter()
	embedded := NewEmbeddedRouter(l)
	for i := 0; i < 1000; i++ {
		part := uint64(i % 32)
		id, _ := l.Make(part, uint64(i))
		table.Add(id, part)
		tp, err := table.Route(id)
		if err != nil {
			t.Fatalf("table route: %v", err)
		}
		ep, err := embedded.Route(id)
		if err != nil {
			t.Fatalf("embedded route: %v", err)
		}
		if tp != ep || tp != part {
			t.Fatalf("routers disagree: %d vs %d (want %d)", tp, ep, part)
		}
	}
	if len(table.m) != 1000 {
		t.Errorf("table routes %d ids", len(table.m))
	}
	if table.MemoryBytes() <= embedded.MemoryBytes() {
		t.Error("table router must cost more memory than the embedded one")
	}
	if _, err := table.Route(0xFFFFFFFF); err == nil {
		t.Error("unknown id should fail in table router")
	}
}

func TestFindReducible(t *testing.T) {
	checks, err := FindReducible(wiki.RevisionSchema(),
		[]string{"rev_id"},
		map[string]string{"rev_text_id": "rev_id"})
	if err != nil {
		t.Fatalf("FindReducible: %v", err)
	}
	if len(checks) != 2 {
		t.Fatalf("got %d checks", len(checks))
	}
	total := 0
	for _, c := range checks {
		if c.SavedBitsPerRow <= 0 {
			t.Errorf("%s saves nothing", c.Field)
		}
		total += c.SavedBitsPerRow
	}
	if total != 128 {
		t.Errorf("total savings %d bits, want 128 (two BIGINTs)", total)
	}
	if _, err := FindReducible(wiki.RevisionSchema(), []string{"nope"}, nil); err == nil {
		t.Error("unknown field should fail")
	}
	if _, err := FindReducible(wiki.RevisionSchema(), nil, map[string]string{"rev_id": "nope"}); err == nil {
		t.Error("unknown determinant should fail")
	}
}
