package nblb

// Integration tests through the public facade: the API a downstream
// user sees, exercised end to end.

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/tuple"
	"repro/internal/wiki"
)

func TestFacadeEndToEnd(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()

	tb, err := db.CreateTable("t", MustSchema(
		Field{Name: "id", Kind: KindInt64},
		Field{Name: "v", Kind: KindInt32},
		Field{Name: "s", Kind: KindString},
	))
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	ix, err := tb.CreateIndex("pk", []string{"id"}, WithCache("v"))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	for i := 0; i < 100; i++ {
		if _, err := tb.Insert(Row{Int64(int64(i)), Int32(int32(i * 7)), String("x")}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// Miss then hit through the cache.
	_, res, err := ix.Lookup([]string{"v"}, Int64(33))
	if err != nil || !res.Found || res.CacheHit {
		t.Fatalf("first lookup: %+v %v", res, err)
	}
	row, res, err := ix.Lookup([]string{"v"}, Int64(33))
	if err != nil || !res.CacheHit || row[0].Int != 231 {
		t.Fatalf("second lookup: %v %+v %v", row, res, err)
	}
}

func TestFacadeFileBacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.pages")
	db, err := Open(Options{Path: path, PageSize: 4096, BufferPoolPages: 64})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tb, err := db.CreateTable("t", MustSchema(Field{Name: "id", Kind: KindInt64}))
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	rid, err := tb.Insert(Row{Int64(7)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	row, err := tb.Get(rid)
	if err != nil || row[0].Int != 7 {
		t.Fatalf("Get: %v %v", row, err)
	}
}

func TestFacadePartitioning(t *testing.T) {
	db, err := Open(Options{PageSize: 4096, BufferPoolPages: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	hc, err := NewHotCold(HotColdConfig{
		Engine: db, Name: "rev", Schema: wiki.RevisionSchema(), KeyFields: []string{"rev_id"},
	})
	if err != nil {
		t.Fatalf("NewHotCold: %v", err)
	}
	gen := wiki.NewGenerator(wiki.Config{Pages: 50, RevisionsPerPage: 5, Alpha: 0.5, Seed: 1})
	revs, _ := gen.Revisions()
	for _, r := range revs {
		if r.Latest {
			_, err = hc.InsertHot(r.Row)
		} else {
			_, err = hc.InsertCold(r.Row)
		}
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	row, inHot, err := hc.Lookup(revs[len(revs)-1].Row[0])
	if err != nil || row == nil {
		t.Fatalf("Lookup: %v %v", row, err)
	}
	if !inHot && !revs[len(revs)-1].Latest {
		t.Log("last revision not latest; fine")
	}
}

func TestFacadeClusterTracker(t *testing.T) {
	db, err := Open(Options{PageSize: 1024, BufferPoolPages: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tb, err := db.CreateTable("t", MustSchema(
		Field{Name: "id", Kind: KindInt64},
		Field{Name: "pad", Kind: KindString},
	), WithAppendOnlyHeap())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	ix, err := tb.CreateIndex("pk", []string{"id"})
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	tracker := NewAccessTracker()
	var rids []RID
	for i := 0; i < 200; i++ {
		rid, err := tb.Insert(Row{Int64(int64(i)), String("padding-padding-padding")})
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		rids = append(rids, rid)
	}
	// Access every 20th row heavily.
	for round := 0; round < 10; round++ {
		for i := 0; i < 200; i += 20 {
			tracker.Record(rids[i])
		}
	}
	hot := tracker.HotSetByCoverage(0.99)
	if len(hot) != 10 {
		t.Fatalf("hot set size %d, want 10", len(hot))
	}
	moved, err := Cluster(tb, hot)
	if err != nil {
		t.Fatalf("Cluster: %v", err)
	}
	if len(moved) != 10 {
		t.Fatalf("moved=%d", len(moved))
	}
	// Index remains correct for all rows.
	for i := 0; i < 200; i++ {
		_, res, err := ix.Lookup(nil, Int64(int64(i)))
		if err != nil || !res.Found {
			t.Fatalf("row %d lost after clustering: %+v %v", i, res, err)
		}
	}
}

func TestFacadeAnalyzeTableAndPack(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tb, err := db.CreateTable("cartel", wiki.CarTelSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	gen := wiki.NewGenerator(wiki.Config{Pages: 10, RevisionsPerPage: 1, Alpha: 0.5, Seed: 1})
	for i := 0; i < 500; i++ {
		if _, err := tb.Insert(gen.CarTelRow(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	report, err := AnalyzeTable(tb)
	if err != nil {
		t.Fatalf("AnalyzeTable: %v", err)
	}
	if report.WastePct() < 30 {
		t.Errorf("cartel waste %.1f%% suspiciously low", report.WastePct())
	}
	packed, err := PackedSchema(tb.Schema(), report)
	if err != nil {
		t.Fatalf("PackedSchema: %v", err)
	}
	var rows []Row
	cur, err := tb.Query()
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for cur.Next() {
		rows = append(rows, cur.Row().Clone())
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	// Every row back to back, as a heap page holds them: each in the
	// packed layout, none escaped, each read back whole.
	var buf []byte
	for i, row := range rows {
		var esc uint64
		if buf, esc, err = tuple.EncodeEscapes(packed, row, buf); err != nil || esc != 0 {
			t.Fatalf("row %d: escapes %b (%v)", i, esc, err)
		}
	}
	for i, row := range rows {
		back, n, err := tuple.Decode(packed, buf)
		if err != nil || buf[0] != tuple.TagPacked || !back.Equal(row) {
			t.Fatalf("row %d round trip: %v, want %v (%v)", i, back, row, err)
		}
		buf = buf[n:]
	}
}

func TestFacadeVertical(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	schema := MustSchema(
		Field{Name: "id", Kind: KindInt64},
		Field{Name: "a", Kind: KindInt64},
		Field{Name: "b", Kind: KindString},
	)
	split, err := AdviseVertical(schema, []FieldStats{
		{Name: "id", WidthBytes: 8, ReadFreq: 1, Cached: true},
		{Name: "a", WidthBytes: 8, ReadFreq: 0.9, Cached: true},
		{Name: "b", WidthBytes: 200, ReadFreq: 0.01},
	}, DefaultVerticalCostModel())
	if err != nil {
		t.Fatalf("AdviseVertical: %v", err)
	}
	groups := make([][]string, 0, len(split.Groups))
	for _, g := range split.Groups {
		var cleaned []string
		for _, f := range g {
			if f != "id" {
				cleaned = append(cleaned, f)
			}
		}
		if len(cleaned) > 0 {
			groups = append(groups, cleaned)
		}
	}
	vt, err := NewVerticalTable(db, "v", schema, "id", groups)
	if err != nil {
		t.Fatalf("NewVerticalTable: %v", err)
	}
	for i := 0; i < 20; i++ {
		if err := vt.Insert(Row{Int64(int64(i)), Int64(int64(i * 2)), String("blob")}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	row, _, err := vt.Get(Int64(3))
	if err != nil || row[1].Int != 6 {
		t.Fatalf("Get: %v %v", row, err)
	}
}

func TestFacadeSemID(t *testing.T) {
	l, err := NewIDLayout(4)
	if err != nil {
		t.Fatalf("NewIDLayout: %v", err)
	}
	id, err := l.Make(5, 1234)
	if err != nil {
		t.Fatalf("Make: %v", err)
	}
	tr := NewTableRouter()
	tr.Add(id, 5)
	er := NewEmbeddedRouter(l)
	p1, _ := tr.Route(id)
	p2, _ := er.Route(id)
	if p1 != p2 || p1 != 5 {
		t.Fatalf("routers disagree: %d %d", p1, p2)
	}
	checks, err := FindReducibleIDs(wiki.RevisionSchema(), []string{"rev_id"}, nil)
	if err != nil || len(checks) != 1 {
		t.Fatalf("FindReducibleIDs: %v %v", checks, err)
	}
}

func TestFacadeScanOrder(t *testing.T) {
	db, _ := Open(Options{})
	defer db.Close()
	tb, _ := db.CreateTable("t", MustSchema(Field{Name: "id", Kind: KindInt64}))
	for i := 0; i < 10; i++ {
		tb.Insert(Row{Int64(int64(i))})
	}
	var got []int64
	cur, err := tb.Query()
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	for cur.Next() {
		got = append(got, cur.Row()[0].Int)
	}
	if err := cur.Close(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	if len(got) != 10 {
		t.Fatalf("scanned %d rows", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("heap order violated at %d: %v", i, got)
		}
	}
	_ = fmt.Sprint(got)
}

func TestFacadeTransactions(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	tb, err := db.CreateTable("t", MustSchema(
		Field{Name: "id", Kind: KindInt64},
		Field{Name: "v", Kind: KindInt32},
	))
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tb.CreateIndex("pk", []string{"id"}); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	rid, err := tb.Insert(Row{Int64(1), Int32(10)})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}

	// Snapshot pinned before the transactional update commits.
	before := db.Begin()
	defer before.Abort()

	txn := db.Begin()
	var b Batch
	b.Update(rid, Row{Int64(1), Int32(20)})
	b.Insert(Row{Int64(2), Int32(30)})
	if _, err := txn.Apply(tb, &b); err != nil {
		t.Fatalf("stage: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	// The older snapshot still reads the pre-commit state.
	cur, err := before.Query(tb, WithIndex("pk"))
	if err != nil {
		t.Fatalf("snapshot Query: %v", err)
	}
	var ids []int64
	for cur.Next() {
		ids = append(ids, cur.Row()[0].Int)
	}
	cur.Close()
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("old snapshot saw %v, want just id 1", ids)
	}

	// A conflicting update loses first-committer-wins.
	loser := db.Begin()
	winner := db.Begin()
	var lb, wb Batch
	// The committed update moved id 1 to a new version; look it up fresh.
	pk, err := tb.Index("pk")
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	newRID, found, err := pk.LookupRID(Int64(1))
	if err != nil || !found {
		t.Fatalf("LookupRID: found=%v err=%v", found, err)
	}
	lb.Update(newRID, Row{Int64(1), Int32(40)})
	wb.Update(newRID, Row{Int64(1), Int32(50)})
	if _, err := loser.Apply(tb, &lb); err != nil {
		t.Fatalf("loser stage: %v", err)
	}
	if _, err := winner.Apply(tb, &wb); err != nil {
		t.Fatalf("winner stage: %v", err)
	}
	if err := winner.Commit(); err != nil {
		t.Fatalf("winner Commit: %v", err)
	}
	if err := loser.Commit(); !errors.Is(err, ErrTxnConflict) {
		t.Fatalf("loser Commit = %v, want ErrTxnConflict", err)
	}
	if err := loser.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double Commit = %v, want ErrTxnDone", err)
	}
}
