package server_test

import (
	"testing"

	"repro/client"
	"repro/internal/core"
)

// TestGetRefusesWhatIsNotAPoint: a Get names one row — a unique index
// and one value of the right kind for each of its key fields. The
// server answers it as a point query, so anything else is refused
// rather than served as the first row of a prefix or a scan, and the
// connection keeps serving.
func TestGetRefusesWhatIsNotAPoint(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	setupItems(t, f.eng, 50)
	tb, err := f.eng.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("by_score", []string{"score"}, core.NonUnique()); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for _, bad := range []struct {
		name, index string
		key         []client.Value
	}{
		{"non-unique index", "by_score", []client.Value{client.Int32(7)}},
		{"no key", "by_id", nil},
		{"a value too many", "by_id", []client.Value{client.Int64(7), client.Int64(8)}},
		{"wrong kind", "by_id", []client.Value{client.String("7")}},
	} {
		if row, found, err := cl.Get("items", bad.index, bad.key...); err == nil {
			t.Errorf("%s: answered %v (found %v), want an error", bad.name, row, found)
		}
	}
	row, found, err := cl.Get("items", "by_id", client.Int64(7))
	if err != nil || !found || row[0].Int != 7 {
		t.Fatalf("Get(7) after the refusals: %v found=%v err=%v", row, found, err)
	}
}
