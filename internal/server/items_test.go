package server_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/core"
	"repro/internal/tuple"
)

// The "items" fixture mirrors the served benchmark's table: seven
// fields (two of them strings), a unique index on id with the §2.1
// cache over (score, flag, ts). Every field derives from (id, ver), so
// a row read back validates itself — which is what lets the allocation
// budgets and the buffer-ownership storms check every row they read.

var itemsCovered = []string{"id", "score", "flag"}

func itemRow(id int64, ver int) tuple.Row {
	return tuple.Row{
		tuple.Int64(id),
		tuple.Int32(int32(ver)<<10 | int32(id&1023)),
		tuple.Bool((id+int64(ver))%3 == 0),
		tuple.TimestampUnix(1_700_000_000 + int64(ver)),
		tuple.String(fmt.Sprintf("item-%019d", id)),
		tuple.String(fmt.Sprintf("%016x-%03d-", id, ver) + strings.Repeat("b", 60+int(id%41))),
		tuple.Int64(id*1_000_003 + int64(ver)),
	}
}

// checkItem validates a full row (or, with covered set, the id/score/
// flag projection) read back for id, returning the version it carries.
func checkItem(row tuple.Row, id int64, covered bool) (int, error) {
	want := 7
	if covered {
		want = 3
	}
	if len(row) != want {
		return 0, fmt.Errorf("id %d: row has %d fields, want %d: %v", id, len(row), want, row)
	}
	ver := int(row[1].Int >> 10)
	full := itemRow(id, ver)
	for i := range row {
		if !row[i].Equal(full[i]) {
			return 0, fmt.Errorf("id %d ver %d: field %d = %v, want %v", id, ver, i, row[i], full[i])
		}
	}
	return ver, nil
}

// setupItems creates and loads the items table through the engine (an
// index cache cannot be declared over the wire) and returns each row's
// packed RID by id.
func setupItems(t testing.TB, eng *core.Engine, n int) []uint64 {
	t.Helper()
	schema, err := tuple.NewSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "score", Kind: tuple.KindInt32},
		tuple.Field{Name: "flag", Kind: tuple.KindBool},
		tuple.Field{Name: "ts", Kind: tuple.KindTimestamp},
		tuple.Field{Name: "name", Kind: tuple.KindString, Size: 24},
		tuple.Field{Name: "body", Kind: tuple.KindString, Size: 128},
		tuple.Field{Name: "chk", Kind: tuple.KindInt64},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	tb, err := eng.CreateTable("items", schema)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if _, err := tb.CreateIndex("by_id", []string{"id"}, core.WithCache("score", "flag", "ts")); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	var b core.Batch
	for id := 0; id < n; id++ {
		b.Insert(itemRow(int64(id), 0))
	}
	res, err := tb.Apply(&b, core.WithResultRIDs())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	rids := make([]uint64, n)
	for i, rid := range res.RIDs {
		rids[i] = rid.Pack()
	}
	return rids
}

// coveredPoint is the benchmark's covered point read: index + prefix +
// three-field projection + limit 1.
func coveredPoint(cl *client.Client, id int64) (tuple.Row, error) {
	rows, err := cl.Query("items", client.WithIndex("by_id"), client.WithPrefix(client.Int64(id)),
		client.WithProjection(itemsCovered...), client.WithLimit(1))
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	if !rows.Next() {
		if err := rows.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("id %d: covered read found no row", id)
	}
	return rows.Row(), nil
}
