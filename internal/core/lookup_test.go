package core

import (
	"fmt"
	"testing"

	"repro/internal/tuple"
)

func pageFixture(t *testing.T, rows int, cached bool) (*Table, *Index) {
	t.Helper()
	e := newTestEngine(t)
	tb, err := e.CreateTable("page", pagesSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := 0; i < rows; i++ {
		if _, err := tb.Insert(pageRow(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	opts := []IndexOption{}
	if cached {
		opts = append(opts, WithCache("latest_rev", "len"), WithCacheSeed(1))
	}
	ix, err := tb.CreateIndex("name_title", []string{"namespace", "title"}, opts...)
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	return tb, ix
}

func pageKey(i int) []tuple.Value {
	return []tuple.Value{tuple.Int32(0), tuple.String(fmt.Sprintf("Title_%05d", i))}
}

// TestLookupIntoReusesBuffer checks the caller-buffer variant returns
// correct values and actually reuses the provided backing array.
func TestLookupIntoReusesBuffer(t *testing.T) {
	const rows = 100
	_, ix := pageFixture(t, rows, true)
	if _, err := ix.WarmCache(); err != nil {
		t.Fatalf("WarmCache: %v", err)
	}
	proj := []string{"latest_rev", "len"}
	buf := make(tuple.Row, 0, len(proj))
	for i := 0; i < rows; i++ {
		row, res, err := ix.LookupInto(buf, proj, pageKey(i)...)
		if err != nil {
			t.Fatalf("LookupInto: %v", err)
		}
		if !res.Found {
			t.Fatalf("row %d not found", i)
		}
		if got, want := row[0].Int, int64(i*10); got != want {
			t.Errorf("row %d latest_rev = %d, want %d", i, got, want)
		}
		if got, want := row[1].Int, int64(100+i); got != want {
			t.Errorf("row %d len = %d, want %d", i, got, want)
		}
		if cap(row) == len(proj) && len(buf) == 0 {
			// Reuse contract: same backing array handed back.
			if &row[:1][0] != &buf[:1][0] {
				t.Fatal("LookupInto did not reuse the caller buffer")
			}
		}
		buf = row
	}
}

// TestProjectionPlanCacheConcurrent exercises the copy-on-write
// projection-plan cache from many goroutines using distinct and
// repeated projections (run with -race).
func TestProjectionPlanCacheConcurrent(t *testing.T) {
	_, ix := pageFixture(t, 50, false)
	projs := [][]string{
		nil,
		{"latest_rev"},
		{"len", "latest_rev"},
		{"title"},
		{"namespace", "title", "latest_rev", "len"},
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for n := 0; n < 200; n++ {
				p := projs[(g+n)%len(projs)]
				row, res, err := ix.Lookup(p, pageKey(n%50)...)
				if err != nil {
					done <- err
					return
				}
				if !res.Found {
					done <- fmt.Errorf("row %d vanished", n%50)
					return
				}
				want := len(p)
				if p == nil {
					want = ix.table.schema.NumFields()
				}
				if len(row) != want {
					done <- fmt.Errorf("projection %v returned %d fields", p, len(row))
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ix.Lookup([]string{"no_such_field"}, pageKey(0)...); err == nil {
		t.Error("unknown projection field should error")
	}
}

// TestLookupRefusesWhatIsNotAPoint: Lookup is a point query, so it
// refuses what names no single row — a non-unique index, too few or too
// many key values, a value of the wrong kind — instead of answering the
// first row of a prefix.
func TestLookupRefusesWhatIsNotAPoint(t *testing.T) {
	tb, ix := pageFixture(t, 20, true)
	byRev, err := tb.CreateIndex("by_rev", []string{"latest_rev"}, NonUnique())
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	for _, bad := range []struct {
		name string
		ix   *Index
		key  []tuple.Value
	}{
		{"non-unique index", byRev, []tuple.Value{tuple.Int64(10)}},
		{"a key prefix", ix, []tuple.Value{tuple.Int32(0)}},
		{"a value too many", ix, append(pageKey(1), tuple.Int64(1))},
		{"wrong kind", ix, []tuple.Value{tuple.Int64(0), tuple.String("Title_00001")}},
	} {
		if row, res, err := bad.ix.Lookup(nil, bad.key...); err == nil {
			t.Errorf("%s: answered %v %+v, want an error", bad.name, row, res)
		}
	}
	if _, res, err := ix.Lookup(nil, pageKey(1)...); err != nil || !res.Found {
		t.Fatalf("Lookup(1): %+v %v", res, err)
	}
}
