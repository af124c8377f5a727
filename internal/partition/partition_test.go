package partition

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wiki"
)

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(core.Options{PageSize: 1024, BufferPoolPages: 1024})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestTrackerHottest(t *testing.T) {
	tr := NewAccessTracker()
	a := storage.RID{Page: 1, Slot: 0}
	b := storage.RID{Page: 2, Slot: 0}
	c := storage.RID{Page: 3, Slot: 0}
	for i := 0; i < 10; i++ {
		tr.Record(a)
	}
	for i := 0; i < 5; i++ {
		tr.Record(b)
	}
	tr.Record(c)
	hot := tr.Hottest(2)
	if len(hot) != 2 || hot[0] != a || hot[1] != b {
		t.Errorf("Hottest(2) = %v", hot)
	}
	if tr.Count(a) != 10 {
		t.Errorf("Count(a)=%d", tr.Count(a))
	}
}

func TestTrackerHotSetByCoverage(t *testing.T) {
	tr := NewAccessTracker()
	hot := storage.RID{Page: 1, Slot: 0}
	for i := 0; i < 999; i++ {
		tr.Record(hot)
	}
	tr.Record(storage.RID{Page: 2, Slot: 0})
	set := tr.HotSetByCoverage(0.99)
	if len(set) != 1 || set[0] != hot {
		t.Errorf("HotSetByCoverage(0.99) = %v", set)
	}
	all := tr.HotSetByCoverage(1.0)
	if len(all) != 2 {
		t.Errorf("full coverage should return both, got %v", all)
	}
	if empty := NewAccessTracker().HotSetByCoverage(0.5); len(empty) != 0 {
		t.Errorf("an empty tracker's hot set = %v", empty)
	}
}

func revRowForTest(i int) tuple.Row {
	return tuple.Row{
		tuple.Int64(int64(i + 1)),
		tuple.Int64(int64(i/10 + 1)),
		tuple.Int64(int64(i + 1000)),
		tuple.String(fmt.Sprintf("comment %d", i)),
		tuple.Int64(int64(i % 100)),
		tuple.String("User"),
		tuple.Char("20100101000000"),
		tuple.Int64(0),
		tuple.Int64(0),
		tuple.Int64(int64(i)),
		tuple.Int64(0),
	}
}

func TestClusterRelocatesToTail(t *testing.T) {
	e := newEngine(t)
	tb, err := e.CreateTable("revision", wiki.RevisionSchema(), core.WithAppendOnlyHeap())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	ix, err := tb.CreateIndex("rev_id", []string{"rev_id"})
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	var rids []storage.RID
	for i := 0; i < 200; i++ {
		rid, err := tb.Insert(revRowForTest(i))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		rids = append(rids, rid)
	}
	// Hot = every 10th tuple (scattered).
	var hot []storage.RID
	for i := 0; i < 200; i += 10 {
		hot = append(hot, rids[i])
	}
	lastPageBefore := tb.Heap().Pages()[tb.Heap().NumPages()-1]
	moved, err := Cluster(tb, hot)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if len(moved) != len(hot) {
		t.Fatalf("moved %d of %d", len(moved), len(hot))
	}
	// All moved tuples landed at/after the old tail page.
	for old, new := range moved {
		if new.Page < lastPageBefore {
			t.Errorf("tuple %v moved to %v, before old tail %v", old, new, lastPageBefore)
		}
	}
	// Index still finds every row, at its new location.
	for i := 0; i < 200; i++ {
		row, res, err := ix.Lookup(nil, tuple.Int64(int64(i+1)))
		if err != nil || !res.Found {
			t.Fatalf("Lookup %d after clustering: %+v %v", i, res, err)
		}
		if row[9].Int != int64(i) {
			t.Errorf("row %d content wrong after clustering", i)
		}
	}
	if tb.Rows() != 200 {
		t.Errorf("Rows = %d", tb.Rows())
	}
}

func TestClusterFractionBounds(t *testing.T) {
	e := newEngine(t)
	tb, _ := e.CreateTable("revision", wiki.RevisionSchema(), core.WithAppendOnlyHeap())
	if _, err := ClusterFraction(tb, nil, -0.1); err == nil {
		t.Error("negative fraction should fail")
	}
	if _, err := ClusterFraction(tb, nil, 1.1); err == nil {
		t.Error("fraction > 1 should fail")
	}
}

func TestHotColdLookupAndStats(t *testing.T) {
	e := newEngine(t)
	hc, err := New(Config{
		Engine: e, Name: "revision", Schema: wiki.RevisionSchema(),
		KeyFields: []string{"rev_id"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 50; i++ {
		var err error
		if i%5 == 0 {
			_, err = hc.InsertHot(revRowForTest(i))
		} else {
			_, err = hc.InsertCold(revRowForTest(i))
		}
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	// Hot rows found in hot, cold rows in cold.
	row, inHot, err := hc.Lookup(tuple.Int64(1))
	if err != nil || row == nil || !inHot {
		t.Fatalf("hot lookup: %v %v %v", row, inHot, err)
	}
	row, inHot, err = hc.Lookup(tuple.Int64(2))
	if err != nil || row == nil || inHot {
		t.Fatalf("cold lookup: %v %v %v", row, inHot, err)
	}
	// Missing key.
	row, _, err = hc.Lookup(tuple.Int64(9999))
	if err != nil || row != nil {
		t.Fatalf("missing lookup: %v %v", row, err)
	}
	st, err := hc.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.HotRows+st.ColdRows != 50 {
		t.Errorf("rows: hot=%d cold=%d", st.HotRows, st.ColdRows)
	}
	if st.HotIndexBytes <= 0 || st.ColdIndexBytes <= 0 {
		t.Error("index sizes missing")
	}
	if st.ColdIndexBytes < st.HotIndexBytes {
		t.Error("cold index should be at least as large as hot (4/5 of rows)")
	}
}

func TestHotColdConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("incomplete config should fail")
	}
}
