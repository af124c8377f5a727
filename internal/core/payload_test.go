package core

import (
	"testing"

	"repro/internal/tuple"
)

// payloadSchema caches one field of every kind a payload stores.
func payloadSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "i64", Kind: tuple.KindInt64},
		tuple.Field{Name: "i32", Kind: tuple.KindInt32},
		tuple.Field{Name: "i16", Kind: tuple.KindInt16},
		tuple.Field{Name: "i8", Kind: tuple.KindInt8},
		tuple.Field{Name: "b", Kind: tuple.KindBool},
		tuple.Field{Name: "ts", Kind: tuple.KindTimestamp},
		tuple.Field{Name: "f", Kind: tuple.KindFloat64},
		tuple.Field{Name: "c", Kind: tuple.KindChar, Size: 3},
	)
}

var payloadFields = []string{"i64", "i32", "i16", "i8", "b", "ts", "f", "c"}

// payloadRow is row id: small offsets from a few hundred, so the
// adopted layout narrows every offset field (each repeats within the
// layout's 128-row sample, but the timestamp, a 32-bit epoch), and a
// NULL in every seventh row's i32.
func payloadRow(id int64) tuple.Row {
	i32 := tuple.Int32(int32(-300 + id%50))
	if id%7 == 3 {
		i32 = tuple.Null(tuple.KindInt32)
	}
	return tuple.Row{
		tuple.Int64(id), tuple.Int64(1_000_000 + id%100), i32, tuple.Int16(int16(id % 100)),
		tuple.Int8(int8(id%20 - 10)), tuple.Bool(id%2 == 0), tuple.TimestampUnix(1_600_000_000 + id),
		tuple.Float64(float64(id%90) - 40), tuple.Char(string(rune('a' + id%26))),
	}
}

// TestPayloadPlanFollowsLayout: a §2.1 payload takes its fields at the
// widths of the layout the table adopts — narrower than declared, each
// a signed offset from the layout's minimum — and reads back exactly.
// A value outside a field's domain is not admitted, once: the field
// escapes to its declared width, and the payload grows, never to a width
// an earlier plan had.
func TestPayloadPlanFollowsLayout(t *testing.T) {
	e := newTestEngine(t)
	tbl, err := e.CreateTable("p", payloadSchema())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := tbl.CreateIndex("by_id", []string{"id"}, WithCache(payloadFields...))
	if err != nil {
		t.Fatal(err)
	}
	declared := ix.Cache().PayloadSize()
	if declared != 1+8+4+2+1+1+8+8+3 {
		t.Fatalf("declared payload %d bytes", declared)
	}
	want := map[int64]tuple.Row{}
	put := func(row tuple.Row) {
		t.Helper()
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
		want[row[0].Int] = row
	}
	for id := int64(0); id < 300; id++ {
		put(payloadRow(id))
	}
	if tbl.Schema().Packed() == nil {
		t.Fatal("no layout adopted")
	}
	// check reads every row twice, the second answered from the cache,
	// and returns the payload width the cache holds.
	check := func(stage string) int {
		t.Helper()
		proj := append([]string{"id"}, payloadFields...)
		for id, row := range want {
			for pass := 0; pass < 2; pass++ {
				got, res, err := ix.Lookup(proj, tuple.Int64(id))
				if err != nil || !got.Equal(append(tuple.Row{row[0]}, row[1:]...)) {
					t.Fatalf("%s: id %d pass %d reads %v (%v), want %v", stage, id, pass, got, err, row)
				}
				if pass == 1 && !res.CacheHit {
					t.Fatalf("%s: id %d missed the cache right after its fill", stage, id)
				}
			}
		}
		return ix.Cache().PayloadSize()
	}
	packed := check("adopted")
	if packed >= declared {
		t.Fatalf("packed payload %d bytes, declared %d: the layout narrowed nothing", packed, declared)
	}
	if n := ix.Cache().Stats().NotAdmitted; n != 0 {
		t.Fatalf("%d rows not admitted inside the layout's domain", n)
	}
	// Below the sample's minimum, inside the rounding's room: admitted.
	below := payloadRow(400)
	below[1] = tuple.Int64(1_000_000 - 20)
	put(below)
	if got := check("below the minimum"); got != packed || ix.Cache().Stats().NotAdmitted != 0 {
		t.Fatalf("a value inside the signed room changed the payload %d → %d bytes (%d not admitted)", packed, got, ix.Cache().Stats().NotAdmitted)
	}
	// Far outside: not admitted once, then the field escapes.
	far := payloadRow(401)
	far[1] = tuple.Int64(-5_000_000_000)
	put(far)
	if _, res, err := ix.Lookup(nil, tuple.Int64(401)); err != nil || !res.Found || res.CacheFilled {
		t.Fatalf("the out-of-domain row: found=%v filled=%v err=%v; want it read from the heap and not admitted", res.Found, res.CacheFilled, err)
	}
	wider := check("escaped")
	if n := ix.Cache().Stats().NotAdmitted; n != 1 {
		t.Fatalf("NotAdmitted = %d after one out-of-domain row, want 1", n)
	}
	if wider <= packed || wider > declared {
		t.Fatalf("payload %d → %d bytes after the escape, declared %d", packed, wider, declared)
	}
}
