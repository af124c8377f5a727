package vertical

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tuple"
)

func testSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "hot_a", Kind: tuple.KindInt64},
		tuple.Field{Name: "hot_b", Kind: tuple.KindInt32},
		tuple.Field{Name: "written", Kind: tuple.KindInt64},
		tuple.Field{Name: "cold_blob", Kind: tuple.KindString},
	)
}

func testStats() []FieldStats {
	return []FieldStats{
		{Name: "id", WidthBytes: 8, ReadFreq: 1.0, Cached: true},
		{Name: "hot_a", WidthBytes: 8, ReadFreq: 0.9, Cached: true},
		{Name: "hot_b", WidthBytes: 4, ReadFreq: 0.9, Cached: true},
		{Name: "written", WidthBytes: 8, ReadFreq: 0.05, UpdateFreq: 0.8},
		{Name: "cold_blob", WidthBytes: 300, ReadFreq: 0.02, UpdateFreq: 0},
	}
}

func TestAdviseSplitsCachedAndHotWrite(t *testing.T) {
	split, err := Advise(testSchema(), testStats(), DefaultCostModel())
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if len(split.Groups) < 2 {
		t.Fatalf("expected a split, got %v (%s)", split.Groups, split.Note)
	}
	if split.Gain() <= 0 {
		t.Errorf("split should win under this workload, gain=%f", split.Gain())
	}
	// Cached fields together, write-hot field separate from the blob.
	groupOf := map[string]int{}
	for gi, g := range split.Groups {
		for _, f := range g {
			groupOf[f] = gi
		}
	}
	if groupOf["hot_a"] != groupOf["hot_b"] {
		t.Error("cached fields not grouped together")
	}
	if groupOf["written"] == groupOf["cold_blob"] {
		t.Error("write-hot field grouped with cold blob")
	}
}

func TestAdviseUnsplitWhenLosing(t *testing.T) {
	schema := tuple.MustSchema(
		tuple.Field{Name: "a", Kind: tuple.KindInt64},
		tuple.Field{Name: "b", Kind: tuple.KindInt64},
	)
	// Everything read every time: splitting only adds seeks.
	stats := []FieldStats{
		{Name: "a", WidthBytes: 8, ReadFreq: 1.0, UpdateFreq: 0.5},
		{Name: "b", WidthBytes: 8, ReadFreq: 1.0},
	}
	split, err := Advise(schema, stats, DefaultCostModel())
	if err != nil {
		t.Fatalf("Advise: %v", err)
	}
	if len(split.Groups) != 1 {
		t.Errorf("should stay unsplit, got %v (%s)", split.Groups, split.Note)
	}
}

func TestAdviseValidation(t *testing.T) {
	if _, err := Advise(testSchema(), nil, DefaultCostModel()); err == nil {
		t.Error("no stats should fail")
	}
	if _, err := Advise(testSchema(), []FieldStats{{Name: "nope"}}, DefaultCostModel()); err == nil {
		t.Error("unknown field should fail")
	}
}

func newEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.NewEngine(core.Options{PageSize: 1024, BufferPoolPages: 512})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func testRow(i int) tuple.Row {
	return tuple.Row{
		tuple.Int64(int64(i)),
		tuple.Int64(int64(i * 2)),
		tuple.Int32(int32(i * 3)),
		tuple.Int64(int64(i * 4)),
		tuple.String("blob-blob-blob"),
	}
}

func TestVerticalTableRoundTrip(t *testing.T) {
	e := newEngine(t)
	groups := [][]string{{"hot_a", "hot_b"}, {"written"}, {"cold_blob"}}
	vt, err := NewVerticalTable(e, "t", testSchema(), "id", groups)
	if err != nil {
		t.Fatalf("NewVerticalTable: %v", err)
	}
	if len(vt.groups) != 3 {
		t.Fatalf("NumGroups = %d", len(vt.groups))
	}
	for i := 0; i < 100; i++ {
		if err := vt.Insert(testRow(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	row, touched, err := vt.Get(tuple.Int64(42))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if touched != 3 {
		t.Errorf("full Get touched %d groups, want 3", touched)
	}
	if !row.Equal(testRow(42)) {
		t.Errorf("row mismatch: %v", row)
	}
}

func TestVerticalTableNarrowReadTouchesOneGroup(t *testing.T) {
	e := newEngine(t)
	groups := [][]string{{"hot_a", "hot_b"}, {"written", "cold_blob"}}
	vt, err := NewVerticalTable(e, "t", testSchema(), "id", groups)
	if err != nil {
		t.Fatalf("NewVerticalTable: %v", err)
	}
	for i := 0; i < 50; i++ {
		vt.Insert(testRow(i))
	}
	vals, touched, err := vt.GetFields(tuple.Int64(7), []string{"hot_a", "hot_b"})
	if err != nil {
		t.Fatalf("GetFields: %v", err)
	}
	if touched != 1 {
		t.Errorf("narrow read touched %d groups, want 1", touched)
	}
	if vals[0].Int != 14 || vals[1].Int != 21 {
		t.Errorf("values wrong: %v", vals)
	}
	// Projecting the pk itself costs nothing extra.
	vals, touched, err = vt.GetFields(tuple.Int64(7), []string{"id", "hot_a"})
	if err != nil || touched != 1 || vals[0].Int != 7 {
		t.Errorf("pk projection: %v %d %v", vals, touched, err)
	}
}

func TestVerticalTableUpdateTouchesOneGroup(t *testing.T) {
	e := newEngine(t)
	groups := [][]string{{"hot_a", "hot_b"}, {"written"}, {"cold_blob"}}
	vt, _ := NewVerticalTable(e, "t", testSchema(), "id", groups)
	for i := 0; i < 20; i++ {
		vt.Insert(testRow(i))
	}
	touched, err := vt.UpdateFields(tuple.Int64(5), []string{"written"}, tuple.Row{tuple.Int64(777)})
	if err != nil {
		t.Fatalf("UpdateFields: %v", err)
	}
	if touched != 1 {
		t.Errorf("update touched %d groups, want 1", touched)
	}
	row, _, err := vt.Get(tuple.Int64(5))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if row[3].Int != 777 {
		t.Errorf("update not applied: %v", row[3])
	}
	// Untouched fields intact.
	if row[1].Int != 10 || row[4].Str != "blob-blob-blob" {
		t.Errorf("other groups corrupted: %v", row)
	}
}

func TestVerticalTableValidation(t *testing.T) {
	e := newEngine(t)
	if _, err := NewVerticalTable(e, "a", testSchema(), "nope", [][]string{{"hot_a"}}); err == nil {
		t.Error("unknown pk should fail")
	}
	if _, err := NewVerticalTable(e, "b", testSchema(), "id", [][]string{{"hot_a"}}); err == nil {
		t.Error("uncovered fields should fail")
	}
	if _, err := NewVerticalTable(e, "c", testSchema(), "id",
		[][]string{{"hot_a", "hot_b", "written", "cold_blob"}, {"hot_a"}}); err == nil {
		t.Error("duplicated field across groups should fail")
	}
}
