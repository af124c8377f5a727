package vertical

import (
	"testing"

	"repro/internal/tuple"
)

func TestVerticalInsertBatchFansOutPerGroup(t *testing.T) {
	e := newEngine(t)
	groups := [][]string{{"hot_a", "hot_b"}, {"written"}, {"cold_blob"}}
	vt, err := NewVerticalTable(e, "t", testSchema(), "id", groups)
	if err != nil {
		t.Fatalf("NewVerticalTable: %v", err)
	}
	rows := make([]tuple.Row, 200)
	for i := range rows {
		rows[i] = testRow(i)
	}
	applied, err := vt.InsertBatch(rows)
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if applied != 3 {
		t.Fatalf("applied %d groups, want 3", applied)
	}
	// Every logical row reconstructs from all groups.
	for i := 0; i < 200; i += 17 {
		row, touched, err := vt.Get(tuple.Int64(int64(i)))
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if touched != 3 {
			t.Fatalf("Get %d touched %d groups", i, touched)
		}
		if !row.Equal(testRow(i)) {
			t.Fatalf("row %d mismatch: %v", i, row)
		}
	}
	// A narrow read of every row sees the whole batch.
	for i := 0; i < 200; i++ {
		row, _, err := vt.GetFields(tuple.Int64(int64(i)), []string{"id", "written"})
		if err != nil {
			t.Fatalf("GetFields %d: %v", i, err)
		}
		if row[1].Int != row[0].Int*4 {
			t.Fatalf("row %d: written = %d", row[0].Int, row[1].Int)
		}
	}

	// A malformed row fails before any group is touched.
	if _, err := vt.InsertBatch([]tuple.Row{{tuple.Int64(999)}}); err == nil {
		t.Error("short row accepted")
	}
	if _, _, err := vt.Get(tuple.Int64(999)); err == nil {
		t.Error("rejected batch left a partial pk behind")
	}
}
