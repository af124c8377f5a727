package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/tuple"
)

func sampleRow() tuple.Row {
	return tuple.Row{
		tuple.Int64(-1234567890123),
		tuple.Int32(77),
		tuple.Int16(-5),
		tuple.Int8(3),
		tuple.Bool(true),
		tuple.Float64(3.25),
		tuple.Char("fixed"),
		tuple.String("héllo wörld"),
		tuple.Bytes([]byte{0, 1, 2, 255}),
		tuple.TimestampUnix(1700000000),
		tuple.Null(tuple.KindString),
	}
}

func TestValueRoundTrip(t *testing.T) {
	for i, v := range sampleRow() {
		buf := AppendValue(nil, v)
		got, n, err := DecodeValue(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("value %d: n=%d err=%v", i, n, err)
		}
		if !got.Equal(v) {
			t.Errorf("value %d: got %v, want %v", i, got, v)
		}
	}
}

func TestMessageRoundTrips(t *testing.T) {
	row := sampleRow()
	cases := []struct {
		name string
		in   interface {
			Marshal([]byte) []byte
		}
		out interface {
			Unmarshal([]byte) error
		}
	}{
		{"ApplyReq", &ApplyReq{Table: "t", Ops: []Op{
			{Kind: OpInsert, Row: row},
			{Kind: OpUpdate, RID: 1 << 40, Row: row[:2]},
			{Kind: OpDelete, RID: 42},
		}}, &ApplyReq{}},
		{"ApplyResp", &ApplyResp{Applied: 2, RIDs: []uint64{7, 0, 9},
			OpErrs: []string{"", "dup key", ""}}, &ApplyResp{}},
		{"ApplyRespAllApplied", &ApplyResp{Applied: 3, RIDs: []uint64{7, 0, 9}}, &ApplyResp{}},
		{"GetReq", &GetReq{Table: "t", Index: "by_id", Key: row[:1]}, &GetReq{}},
		{"GetResp", &GetResp{Found: true, RID: 99, Row: row}, &GetResp{}},
		{"GetRespMiss", &GetResp{}, &GetResp{}},
		{"QueryReq", &QueryReq{Table: "t", Index: "by_id", Lo: row[:1], Hi: nil,
			Prefix: row[1:2], Projection: []string{"a", "b"}, Limit: 10,
			PageSize: 256, Reverse: true, WithRIDs: true}, &QueryReq{}},
		{"QueryReqParallel", &QueryReq{Table: "t", Index: "by_id",
			Parallel: 8, Unordered: true}, &QueryReq{}},
		{"QueryPage", &QueryPage{Rows: []tuple.Row{row, row[:3]},
			RIDs: []uint64{1, 2}, Last: true}, &QueryPage{}},
		{"CreateTableReq", &CreateTableReq{Table: "t", Fields: []tuple.Field{
			{Name: "id", Kind: tuple.KindInt64},
			{Name: "name", Kind: tuple.KindChar, Size: 16},
		}}, &CreateTableReq{}},
		{"CreateIndexReq", &CreateIndexReq{Table: "t", Index: "by_id",
			Fields: []string{"id"}, Unique: true}, &CreateIndexReq{}},
		{"StatsResp", &StatsResp{JSON: []byte(`{"rows":1}`)}, &StatsResp{}},
		{"ErrResp", &ErrResp{Msg: "no such table"}, &ErrResp{}},
		{"ErrRespCoded", &ErrResp{Msg: "core: transaction conflict",
			Code: ErrCodeTxnConflict}, &ErrResp{}},
	}
	for _, tc := range cases {
		buf := tc.in.Marshal(nil)
		if err := tc.out.Unmarshal(buf); err != nil {
			t.Errorf("%s: Unmarshal: %v", tc.name, err)
			continue
		}
		got := reflect.ValueOf(tc.out).Elem().Interface()
		want := reflect.ValueOf(tc.in).Elem().Interface()
		if p, ok := got.(QueryPage); ok {
			got = pageFields(p)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
		// Trailing garbage must be rejected, not silently ignored.
		if err := tc.out.Unmarshal(append(buf, 0)); err == nil {
			t.Errorf("%s: trailing byte accepted", tc.name)
		}
	}
}

// pageFields is what a page says — Rows, RIDs, Last — without the slab a
// decoded page owns besides.
func pageFields(m QueryPage) QueryPage {
	m.slab = nil
	return m
}

// TestQueryPageSlab decodes pages of every shape into one reused page:
// rows narrower and wider than the first (which sizes the slab), absent
// rows, and a small page over a larger one. Each must round-trip, and no
// row may reach into its neighbour.
func TestQueryPageSlab(t *testing.T) {
	row := sampleRow()
	pages := []QueryPage{
		{Rows: []tuple.Row{row, row, row, row}, RIDs: []uint64{1, 2, 3, 4}},
		{Rows: []tuple.Row{row[:2], row, row[:1], nil, row[:5]}, Last: true},
		{Rows: []tuple.Row{nil, row[:3]}},
		{Rows: []tuple.Row{}, Last: true},
		{Rows: []tuple.Row{row[:3], row[3:6]}, RIDs: []uint64{9, 8}},
	}
	var into QueryPage
	for i := range pages {
		want := &pages[i]
		if err := into.Unmarshal(want.Marshal(nil)); err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if len(into.Rows) != len(want.Rows) || into.Last != want.Last || !reflect.DeepEqual(into.RIDs, append([]uint64{}, want.RIDs...)) {
			t.Fatalf("page %d: got %d rows, rids %v, last %v", i, len(into.Rows), into.RIDs, into.Last)
		}
		for j, r := range into.Rows {
			if len(r) != len(want.Rows[j]) || cap(r) != len(r) {
				t.Fatalf("page %d row %d: len %d cap %d, want %d capped", i, j, len(r), cap(r), len(want.Rows[j]))
			}
			for k := range r {
				if !r[k].Equal(want.Rows[j][k]) {
					t.Fatalf("page %d row %d field %d = %v, want %v", i, j, k, r[k], want.Rows[j][k])
				}
			}
		}
	}
	// Counts that each pass the reader's bound must not multiply into a
	// slab the payload could never fill.
	lying := appendUvarint(appendUvarint([]byte{0}, 100), 90)
	lying = append(lying, make([]byte, 200)...)
	var fresh QueryPage
	if err := fresh.Unmarshal(lying); err == nil {
		t.Fatal("page of 100 rows x 90 values in 200 bytes accepted")
	}
	if cap(fresh.slab) > len(lying) {
		t.Fatalf("corrupt counts sized a %d-value slab from a %d-byte payload", cap(fresh.slab), len(lying))
	}
}

// TestQueryPageEmptyRows: an empty row (a projection of no fields)
// encodes in one byte, so a page of them is shorter than two bytes a
// row, and it must still decode to what was encoded. A row count the
// payload cannot hold is still refused, and one it could only hold as
// empty rows pre-allocates no more than two bytes a row would.
func TestQueryPageEmptyRows(t *testing.T) {
	for _, n := range []int{3, 4, 100} {
		want := QueryPage{Rows: make([]tuple.Row, n), Last: true}
		var into QueryPage
		if err := into.Unmarshal(want.Marshal(nil)); err != nil {
			t.Fatalf("%d empty rows: %v", n, err)
		}
		if len(into.Rows) != n || !into.Last {
			t.Fatalf("%d empty rows: got %d rows, last %v", n, len(into.Rows), into.Last)
		}
		for j, r := range into.Rows {
			if len(r) != 0 {
				t.Fatalf("%d empty rows: row %d has %d values", n, j, len(r))
			}
		}
	}
	lying := appendUvarint([]byte{0}, 1000)
	if err := new(QueryPage).Unmarshal(append(lying, make([]byte, 100)...)); err == nil {
		t.Fatal("page of 1000 rows in 100 bytes accepted")
	}
	// The first row's width is corrupt, so decoding stops there: what
	// Rows holds is what the count pre-allocated.
	lying = appendUvarint(lying, 1<<20)
	lying = append(lying, make([]byte, 1000)...)
	var page QueryPage
	if err := page.Unmarshal(lying); err == nil {
		t.Fatal("row of 2^20 values in 1000 bytes accepted")
	}
	if most := (len(lying)-3)/2 + 1; cap(page.Rows) > most {
		t.Fatalf("a count of 1000 over %d bytes pre-allocated %d rows, want ≤ %d", len(lying)-3, cap(page.Rows), most)
	}
}

// TestQueryReqCompat pins the flag-gated Parallel encoding: a request
// without Parallel set marshals to exactly the pre-parallel format, and
// an old-format payload (flags byte last, bit 8 clear) still decodes.
func TestQueryReqCompat(t *testing.T) {
	plain := (&QueryReq{Table: "t", Index: "i", Limit: 3, Reverse: true}).Marshal(nil)
	if f := plain[len(plain)-1]; f&(4|8) != 0 {
		t.Fatalf("serial request leaked parallel flags: %08b", f)
	}
	var m QueryReq
	if err := m.Unmarshal(plain); err != nil {
		t.Fatalf("old-format decode: %v", err)
	}
	if m.Parallel != 0 || m.Unordered {
		t.Fatalf("old-format decode produced Parallel=%d Unordered=%v", m.Parallel, m.Unordered)
	}
	// Parallel present: trailing uvarint after the flags byte.
	par := (&QueryReq{Table: "t", Index: "i", Parallel: 300, Unordered: true}).Marshal(nil)
	var p QueryReq
	if err := p.Unmarshal(par); err != nil {
		t.Fatalf("parallel decode: %v", err)
	}
	if p.Parallel != 300 || !p.Unordered {
		t.Fatalf("parallel round trip: Parallel=%d Unordered=%v", p.Parallel, p.Unordered)
	}
	// Flag bit 8 set but uvarint missing → truncation error, not a panic.
	broken := append([]byte(nil), plain...)
	broken[len(broken)-1] |= 8
	if err := m.Unmarshal(broken); err == nil {
		t.Fatal("flag 8 without trailing count accepted")
	}
}

// TestApplyRespErrorListOptional: an answer whose ops all applied comes
// without an error list, and older servers sent one "" per op. Both
// forms must decode to the same outcome, so old and new peers agree on
// Applied, RIDs and every Err(i).
func TestApplyRespErrorListOptional(t *testing.T) {
	rids := []uint64{7, 0, 9}
	for _, sent := range []ApplyResp{
		{Applied: 3, RIDs: rids},
		{Applied: 3, RIDs: rids, OpErrs: []string{"", "", ""}},
	} {
		var m ApplyResp
		if err := m.Unmarshal(sent.Marshal(nil)); err != nil {
			t.Fatalf("%d errors listed: %v", len(sent.OpErrs), err)
		}
		if m.Applied != 3 || !reflect.DeepEqual(m.RIDs, rids) {
			t.Fatalf("%d errors listed: decoded %+v", len(sent.OpErrs), m)
		}
		for i := 0; i <= len(rids); i++ {
			if err := m.Err(i); err != nil {
				t.Fatalf("%d errors listed: Err(%d) = %v", len(sent.OpErrs), i, err)
			}
		}
	}
}

func TestTruncatedMessagesRejected(t *testing.T) {
	full := (&ApplyReq{Table: "t", Ops: []Op{{Kind: OpInsert, Row: sampleRow()}}}).Marshal(nil)
	for cut := 0; cut < len(full); cut++ {
		var m ApplyReq
		if err := m.Unmarshal(full[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// nanRow is sampleRow with a NaN double: NaN is not equal to itself, so
// a round trip that compared values with == would call it mutated.
func nanRow() tuple.Row {
	row := sampleRow()
	row[5] = tuple.Float64(math.NaN())
	return row
}

// sameEncoding fails t unless m and m2, decoded from m's encoding, encode
// to the same bytes: the round trip is judged by the bytes, which compare
// doubles by their bits.
func sameEncoding(t *testing.T, m, m2 marshaler) {
	t.Helper()
	if b, b2 := m.Marshal(nil), m2.Marshal(nil); !bytes.Equal(b, b2) {
		t.Fatalf("round trip mutated message:\n got %+v\nwant %+v", m2, m)
	}
}

// FuzzApplyReqDecode: arbitrary bytes through the richest decoder —
// must never panic, and every successful decode must survive a
// re-encode/re-decode round trip unchanged (varints may arrive in
// non-minimal form, so byte-level canonicality is not required of the
// input, only of the re-encoding).
func FuzzApplyReqDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add((&ApplyReq{Table: "t", Ops: []Op{{Kind: OpInsert, Row: sampleRow()}}}).Marshal(nil))
	f.Add((&ApplyReq{Table: "x", Ops: []Op{{Kind: OpDelete, RID: 7}}}).Marshal(nil))
	f.Add((&ApplyReq{Table: "n", Ops: []Op{{Kind: OpUpdate, RID: 3, Row: nanRow()}}}).Marshal(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m ApplyReq
		if err := m.Unmarshal(data); err != nil {
			return
		}
		var m2 ApplyReq
		if err := m2.Unmarshal(m.Marshal(nil)); err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		sameEncoding(t, &m, &m2)
	})
}

// FuzzApplyRespDecode is FuzzApplyReqDecode for the write's answer, as a
// client decodes it: both forms of the error list — one string per op,
// and none when every op applied — seed it.
func FuzzApplyRespDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add((&ApplyResp{Applied: 2, RIDs: []uint64{7, 0, 9}, OpErrs: []string{"", "dup key", ""}}).Marshal(nil))
	f.Add((&ApplyResp{Applied: 3, RIDs: []uint64{7, 8, 9}, OpErrs: []string{"", "", ""}}).Marshal(nil))
	f.Add((&ApplyResp{Applied: 3, RIDs: []uint64{7, 8, 9}}).Marshal(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m ApplyResp
		if err := m.Unmarshal(data); err != nil {
			return
		}
		var m2 ApplyResp
		if err := m2.Unmarshal(m.Marshal(nil)); err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip mutated message:\n got %+v\nwant %+v", m2, m)
		}
	})
}

// FuzzQueryPageDecode covers the row/value decode surface from the
// response direction (what a client faces from an untrusted server).
func FuzzQueryPageDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add((&QueryPage{Rows: []tuple.Row{sampleRow()}, RIDs: []uint64{3}, Last: true}).Marshal(nil))
	f.Add((&QueryPage{Rows: []tuple.Row{nanRow()}, Last: true}).Marshal(nil))
	// Four empty rows, one width written in two bytes: its re-encoding is
	// one byte a row, which a two-byte-a-row bound refused.
	f.Add([]byte("0\x04\x00\x80\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m QueryPage
		if err := m.Unmarshal(data); err != nil {
			return
		}
		var m2 QueryPage
		if err := m2.Unmarshal(m.Marshal(nil)); err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		sameEncoding(t, &m, &m2)
	})
}
