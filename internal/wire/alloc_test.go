//go:build !race

package wire

import (
	"bytes"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/tuple"
)

// Frames cost no allocation once their buffers are warm. (Not under
// -race: the detector changes allocation counts.)
func TestFrameCodecAllocFree(t *testing.T) {
	resp := GetResp{Found: true, RID: 1 << 20, Row: sampleRow()}
	page := QueryPage{Rows: []tuple.Row{sampleRow(), sampleRow()[:3]}, RIDs: []uint64{1, 2}, Last: true}
	var buf []byte
	encode := func() {
		buf = BeginFrame(buf[:0])
		buf = resp.Marshal(buf)
		FinishFrame(buf, 0, 9, TGetResp)
		off := len(buf)
		buf = BeginFrame(buf)
		buf = page.Marshal(buf)
		FinishFrame(buf, off, 10, TQueryPage)
	}
	encode() // warm
	if n := testing.AllocsPerRun(100, encode); n != 0 {
		t.Errorf("in-place frame encode into a warm buffer: %v allocs, want 0", n)
	}

	frames := append([]byte(nil), buf...)
	var (
		rd   bytes.Reader
		rbuf []byte
	)
	decode := func() {
		rd.Reset(frames)
		for i := 0; i < 2; i++ {
			_, nb, err := ReadFrame(&rd, rbuf)
			if err != nil {
				t.Fatal(err)
			}
			rbuf = nb
		}
	}
	decode() // warm
	if n := testing.AllocsPerRun(100, decode); n != 0 {
		t.Errorf("ReadFrame into a warm buffer: %v allocs, want 0", n)
	}
}

// A page decodes into one slab, not one slice per row: a reused page
// costs nothing for rows without strings, a fresh one its Rows, its
// slab and its RIDs.
func TestQueryPageDecodeAllocs(t *testing.T) {
	var page QueryPage
	for i := 0; i < 128; i++ {
		page.Rows = append(page.Rows, tuple.Row{tuple.Int64(int64(i)), tuple.Int32(7), tuple.Bool(i%3 == 0)})
		page.RIDs = append(page.RIDs, uint64(i)<<16|3)
	}
	payload := page.Marshal(nil)
	var into QueryPage
	decode := func(m *QueryPage) {
		if err := m.Unmarshal(payload); err != nil || len(m.Rows) != 128 {
			t.Fatalf("decode: %d rows, %v", len(m.Rows), err)
		}
	}
	decode(&into) // warm
	if n := testing.AllocsPerRun(100, func() { decode(&into) }); n != 0 {
		t.Errorf("128-row page into a reused page: %v allocs, want 0", n)
	}
	fresh := func() {
		into = QueryPage{}
		decode(&into)
	}
	if n := testing.AllocsPerRun(100, fresh); n > 3 {
		t.Errorf("128-row page into a fresh page: %v allocs, want <= 3", n)
	}
}

// A decoded response copies its payload once, whatever it holds: a Get
// answer costs its row and one copy of the payload that every string of
// the row is a view of — 2 allocations for one string or for many,
// where each string used to be one more. A page without strings decodes
// into a seeded page's arrays without allocating. A request the server
// answers copies nothing: its strings and bytes are views of the
// payload itself.
func TestDecodeCopiesPayloadOnce(t *testing.T) {
	for k := 1; k <= 6; k++ {
		resp := GetResp{Found: true, RID: 7, Row: tuple.Row{tuple.Int64(1)}}
		for i := 0; i < k; i++ {
			resp.Row = append(resp.Row, tuple.String(strings.Repeat("s", 10+i)), tuple.Int32(int32(i)))
		}
		payload := resp.Marshal(nil)
		var got GetResp
		decode := func() {
			got = GetResp{}
			if err := got.Unmarshal(payload); err != nil || len(got.Row) != len(resp.Row) {
				t.Fatalf("decode: %v, %v", got.Row, err)
			}
		}
		if n := testing.AllocsPerRun(100, decode); n != 2 {
			t.Errorf("GetResp with %d strings: %v allocs, want 2", k, n)
		}
		for i := range got.Row {
			if !got.Row[i].Equal(resp.Row[i]) {
				t.Fatalf("value %d = %v, want %v", i, got.Row[i], resp.Row[i])
			}
		}
	}

	var page QueryPage
	for i := 0; i < 3; i++ {
		page.Rows = append(page.Rows, tuple.Row{tuple.Int64(int64(i)), tuple.Int32(7), tuple.Bool(i%2 == 0)})
		page.RIDs = append(page.RIDs, uint64(i))
	}
	payload := page.Marshal(nil)
	var (
		into QueryPage
		rows [3]tuple.Row
		vals [9]tuple.Value
		rids [3]uint64
	)
	seeded := func() {
		into.Seed(rows[:], vals[:], rids[:])
		if err := into.Unmarshal(payload); err != nil || len(into.Rows) != 3 || len(into.RIDs) != 3 {
			t.Fatalf("decode: %d rows, %v", len(into.Rows), err)
		}
	}
	if n := testing.AllocsPerRun(100, seeded); n != 0 {
		t.Errorf("3-row fixed-width page into a seeded page: %v allocs, want 0", n)
	}

	req := ApplyReq{Table: "t", Ops: []Op{{Kind: OpInsert, Row: sampleRow()}, {Kind: OpUpdate, RID: 9, Row: sampleRow()}}}
	reqPayload := req.Marshal(nil)
	var apply ApplyReq
	decodeReq := func() {
		if err := apply.Unmarshal(reqPayload); err != nil || len(apply.Ops) != 2 {
			t.Fatalf("decode: %+v, %v", apply, err)
		}
	}
	decodeReq() // warm the receiver
	if n := testing.AllocsPerRun(100, decodeReq); n != 0 {
		t.Errorf("ApplyReq with strings into a reused receiver: %v allocs, want 0", n)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(reqPayload)))
	inPayload := func(p *byte) bool {
		a := uintptr(unsafe.Pointer(p))
		return a >= lo && a < lo+uintptr(len(reqPayload))
	}
	for _, op := range apply.Ops {
		if s, raw := op.Row[7].Str, op.Row[8].Raw; !inPayload(unsafe.StringData(s)) || !inPayload(unsafe.SliceData(raw)) {
			t.Fatalf("decoded ApplyReq values %q, %v are not views of the payload", s, raw)
		}
	}
}
