package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/tuple"
)

// The golden file pins the wire format byte for byte. It was written by
// the commit before frames were encoded in place — `go test -run
// TestGoldenFrames -update` there, with encodeInPlace spelled
// AppendFrame(nil, id, typ, m.Marshal(nil)) — so passing here means the
// in-place encoder, PageBuilder included, emits exactly the bytes the
// copying encoder did. Regenerate only for a deliberate format change.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_frames.txt from the current encoder")

const goldenPath = "testdata/golden_frames.txt"

type marshaler interface{ Marshal([]byte) []byte }

type goldenCase struct {
	name string
	id   uint64
	typ  uint8
	msg  marshaler
}

// rawBytes frames a payload that is already bytes (corpus garbage that
// decodes as no message still has to frame identically).
type rawBytes []byte

func (r rawBytes) Marshal(dst []byte) []byte { return append(dst, r...) }

// encodeInPlace is the encoder under test: header reserved, payload
// marshalled directly behind it, header patched — behind a warm prefix,
// as on a connection that batches frames into one buffer.
func encodeInPlace(prefix []byte, c goldenCase) []byte {
	off := len(prefix)
	buf := BeginFrame(prefix)
	buf = c.msg.Marshal(buf)
	FinishFrame(buf, off, c.id, c.typ)
	return buf[off:]
}

// corpusInputs parses the []byte arguments of every Go fuzz corpus
// file under testdata/fuzz/<target>.
func corpusInputs(t *testing.T, target string) [][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus %s: %v", dir, err)
	}
	var out [][]byte
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			inner, ok := strings.CutPrefix(strings.TrimSpace(line), "[]byte(")
			if !ok {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(inner, ")"))
			if err != nil {
				t.Fatalf("%s: bad corpus literal: %v", e.Name(), err)
			}
			out = append(out, []byte(s))
		}
	}
	if len(out) == 0 {
		t.Fatalf("no corpus inputs under %s", dir)
	}
	return out
}

func goldenCases(t *testing.T) []goldenCase {
	row := sampleRow()
	cases := []goldenCase{
		{name: "Ping", id: 1, typ: TPing, msg: rawBytes(nil)},
		{name: "OK", id: 1<<64 - 1, typ: TOK, msg: rawBytes(nil)},
		{name: "ApplyReq", id: 2, typ: TApply, msg: &ApplyReq{Table: "t", Ops: []Op{
			{Kind: OpInsert, Row: row},
			{Kind: OpUpdate, RID: 1 << 40, Row: row[:2]},
			{Kind: OpDelete, RID: 42},
		}}},
		{name: "ApplyReqTxn", id: 3, typ: TApply, msg: &ApplyReq{Table: "items", TxnID: 9,
			Ops: []Op{{Kind: OpUpdate, RID: 77, Row: row}}}},
		{name: "ApplyReqEmpty", id: 4, typ: TApply, msg: &ApplyReq{}},
		{name: "ApplyResp", id: 5, typ: TApplyResp, msg: &ApplyResp{Applied: 2, RIDs: []uint64{7, 0, 9},
			OpErrs: []string{"", "dup key", ""}}},
		// Every op applied: the server sends no error list (a count of 0).
		{name: "ApplyRespAllApplied", id: 24, typ: TApplyResp, msg: &ApplyResp{Applied: 3, RIDs: []uint64{7, 0, 9}}},
		{name: "GetReq", id: 6, typ: TGet, msg: &GetReq{Table: "t", Index: "by_id", Key: row[:1]}},
		{name: "GetResp", id: 7, typ: TGetResp, msg: &GetResp{Found: true, RID: 99, Row: row}},
		{name: "GetRespMiss", id: 8, typ: TGetResp, msg: &GetResp{}},
		{name: "QueryReq", id: 9, typ: TQuery, msg: &QueryReq{Table: "t", Index: "by_id", Lo: row[:1],
			Prefix: row[1:2], Projection: []string{"a", "b"}, Limit: 10,
			PageSize: 256, Reverse: true, WithRIDs: true}},
		{name: "QueryReqParallelTxn", id: 10, typ: TQuery, msg: &QueryReq{Table: "t", Index: "by_id",
			Hi: row[:1], Parallel: 8, Unordered: true, TxnID: 5}},
		{name: "QueryPage", id: 11, typ: TQueryPage, msg: &QueryPage{Rows: []tuple.Row{row, row[:3]},
			RIDs: []uint64{1, 2}, Last: true}},
		{name: "QueryPageEmptyLast", id: 12, typ: TQueryPage, msg: &QueryPage{Last: true}},
		{name: "CreateTableReq", id: 13, typ: TCreateTable, msg: &CreateTableReq{Table: "t", Fields: []tuple.Field{
			{Name: "id", Kind: tuple.KindInt64},
			{Name: "name", Kind: tuple.KindChar, Size: 16},
		}}},
		{name: "CreateIndexReq", id: 14, typ: TCreateIndex, msg: &CreateIndexReq{Table: "t", Index: "by_id",
			Fields: []string{"id"}, Unique: true}},
		{name: "Checkpoint", id: 15, typ: TCheckpoint, msg: rawBytes(nil)},
		{name: "Stats", id: 16, typ: TStats, msg: rawBytes(nil)},
		{name: "StatsResp", id: 17, typ: TStatsResp, msg: &StatsResp{JSON: []byte(`{"rows":1}`)}},
		{name: "TxnBegin", id: 18, typ: TTxnBegin, msg: rawBytes(nil)},
		{name: "TxnBeginResp", id: 19, typ: TTxnBeginResp, msg: &TxnBeginResp{TxnID: 3, StartTS: 1 << 33}},
		{name: "TxnCommit", id: 20, typ: TTxnCommit, msg: &TxnFinishReq{TxnID: 3}},
		{name: "TxnAbort", id: 21, typ: TTxnAbort, msg: &TxnFinishReq{TxnID: 1 << 50}},
		{name: "ErrResp", id: 22, typ: TErr, msg: &ErrResp{Msg: "no such table"}},
		{name: "ErrRespCoded", id: 23, typ: TErr, msg: &ErrResp{Msg: "core: transaction conflict", Code: ErrCodeTxnConflict}},
	}
	// Pages of 127, 128 and 129 rows straddle the row count's one- and
	// two-byte encodings — where PageBuilder's reserved width matters.
	for _, n := range []int{127, 128, 129} {
		p := &QueryPage{}
		for i := 0; i < n; i++ {
			p.Rows = append(p.Rows, tuple.Row{tuple.Int64(int64(i))})
			p.RIDs = append(p.RIDs, uint64(i)<<16)
		}
		cases = append(cases, goldenCase{name: fmt.Sprintf("QueryPage%d", n), id: uint64(100 + n), typ: TQueryPage, msg: p})
	}
	// Every corpus entry, as raw payload bytes and — when it decodes —
	// as the message it decodes to.
	id := uint64(1000)
	for _, target := range []string{"FuzzApplyReqDecode", "FuzzQueryPageDecode", "FuzzReadFrame", "FuzzFrameRoundTrip"} {
		for i, in := range corpusInputs(t, target) {
			id++
			cases = append(cases, goldenCase{name: fmt.Sprintf("%s/%d/raw", target, i), id: id, typ: uint8(id), msg: rawBytes(in)})
			var a ApplyReq
			if target == "FuzzApplyReqDecode" && a.Unmarshal(in) == nil {
				cases = append(cases, goldenCase{name: fmt.Sprintf("%s/%d/msg", target, i), id: id, typ: TApply, msg: &a})
			}
			var q QueryPage
			if target == "FuzzQueryPageDecode" && q.Unmarshal(in) == nil {
				cases = append(cases, goldenCase{name: fmt.Sprintf("%s/%d/msg", target, i), id: id, typ: TQueryPage, msg: &q})
			}
		}
	}
	return cases
}

func TestGoldenFrames(t *testing.T) {
	cases := goldenCases(t)
	if *updateGolden {
		var out bytes.Buffer
		for _, c := range cases {
			fmt.Fprintf(&out, "%s %s\n", c.name, hex.EncodeToString(encodeInPlace(nil, c)))
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, enc, _ := strings.Cut(sc.Text(), " ")
		want[name] = enc
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("golden file has %d entries, test has %d cases", len(want), len(cases))
	}
	warm := bytes.Repeat([]byte{0xAA}, 37) // frames must not depend on what precedes them
	for _, c := range cases {
		for _, prefix := range [][]byte{nil, warm} {
			got := hex.EncodeToString(encodeInPlace(append([]byte(nil), prefix...), c))
			if got != want[c.name] {
				t.Errorf("%s (prefix %d):\n got %s\nwant %s", c.name, len(prefix), got, want[c.name])
			}
		}
		// A page built row by row, for any expected size — short pages
		// shift their rows down, overfull ones up — is the same page.
		if page, ok := c.msg.(*QueryPage); ok {
			for _, maxRows := range []int{0, 1, 127, 128, 256, 20000} {
				var pb PageBuilder
				pb.Begin(BeginFrame(nil), maxRows)
				for _, row := range page.Rows {
					pb.AppendRow(row)
				}
				buf := pb.Finish(page.RIDs, page.Last)
				FinishFrame(buf, 0, c.id, c.typ)
				if got := hex.EncodeToString(buf); got != want[c.name] || pb.Rows() != len(page.Rows) {
					t.Errorf("%s: PageBuilder(maxRows %d) differs from the golden bytes", c.name, maxRows)
				}
			}
		}
		// The bytes-in wrapper is the same encoder.
		if got := hex.EncodeToString(AppendFrame(nil, c.id, c.typ, c.msg.Marshal(nil))); got != want[c.name] {
			t.Errorf("%s: AppendFrame differs from the golden bytes", c.name)
		}
	}
}
