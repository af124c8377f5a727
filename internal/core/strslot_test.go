package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wal"
)

// String slots (ARCHITECTURE.md, "Record format"): a VARCHAR the advisor
// reads as a shared prefix plus a decimal is stored as the decimal, and
// every reader rebuilds it — into scratch the reader owns when it reads
// views.

const (
	slotName = 1 // "item-" and six digits: the slot "item-000" + 3 digits
	slotCode = 2 // one to three digits: a slot with a stored digit count
)

func slotSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "name", Kind: tuple.KindString},
		tuple.Field{Name: "code", Kind: tuple.KindString},
		tuple.Field{Name: "body", Kind: tuple.KindString},
	)
}

// slotRow is row i as loaded: every value inside the domain the load
// profiles, a NULL name in every 13th row, and a body with no decimal
// after any shared prefix, which stays verbatim.
func slotRow(i int64) tuple.Row {
	row := tuple.Row{
		tuple.Int64(i),
		tuple.String(fmt.Sprintf("item-%06d", i)),
		tuple.String(fmt.Sprintf("%0*d", 1+i%3, i%50)),
		tuple.String(fmt.Sprintf("%x/body", uint32(i)*2654435761)),
	}
	if i%13 == 7 {
		row[slotName] = tuple.Null(tuple.KindString)
	}
	return row
}

// escapingRows are updates of rows 0–9 whose strings leave the loaded
// domain, and some that stay inside it at its edges: four name escapes,
// three code escapes.
func escapingRows() []tuple.Row {
	names := []string{"item-000256", "item-", "", "ïtem-000001", "", "", "", "", "", "item-000007"}
	codes := []string{"1", "2", "3", "4", "1234", "0000000000000000000", "000000000000000049", "x", "0", "000"}
	rows := make([]tuple.Row, len(names))
	for i := range rows {
		rows[i] = slotRow(int64(i))
		rows[i][slotCode] = tuple.String(codes[i])
		if i < 4 || i == 9 {
			rows[i][slotName] = tuple.String(names[i])
		} else {
			rows[i][slotName] = tuple.Null(tuple.KindString)
		}
	}
	return rows
}

// loadSlots creates the slot table: row 0 alone (declared), rows 1–255
// in one Apply, which adopts the layout from all 256, then the escaping
// updates of rows 0–9 in another.
func loadSlots(t *testing.T, e *Engine) (*Table, map[int64]tuple.Row) {
	t.Helper()
	tbl, want := loadTable(t, e, "slots", slotSchema(), slotRow, escapingRows())
	l := tbl.Schema().Packed()
	if l.StringSlots() != tuple.DigitSlots {
		t.Fatalf("layout %v: want digit slots", l)
	}
	spec := l.Spec()
	if !reflect.DeepEqual(spec[1:], []tuple.FieldPacking{{Bits: 8, Prefix: "item-000", Digits: 3}, {Bits: 6}, {}}) {
		t.Fatalf("layout %+v: want name as \"item-000\" + 3 digits in 8 bits, code in 6 bits + a digit count, body verbatim", spec)
	}
	if got := landedEscapes(t, tbl); !reflect.DeepEqual(got, []int64{0, 4, 3, 0}) {
		t.Fatalf("escapes per field %v, want four names and three codes", got)
	}
	return tbl, want
}

const (
	ruleFlags = 1 // four values: a dictionary slot
	ruleTS    = 2 // a CHAR(14) of timestamp14s: a timestamp slot
)

func ruleSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "flags", Kind: tuple.KindString},
		tuple.Field{Name: "ts", Kind: tuple.KindChar, Size: 14},
		tuple.Field{Name: "body", Kind: tuple.KindString},
	)
}

func ts14(epoch int64) string { return string(tuple.AppendTS14(nil, epoch)) }

// ruleRow is row i of the rule table as loaded: flags from a dictionary
// of four, NULL in every 13th row, and a timestamp14.
func ruleRow(i int64) tuple.Row {
	row := slotRow(i)
	row[ruleFlags] = tuple.String([]string{"", "gzip", "utf-8", "utf-8,gzip"}[i%4])
	row[ruleTS] = tuple.Char(ts14(1262304000 + 1000*i))
	return row
}

// ruleEscapingRows are updates of rows 0–9 whose flags or timestamps
// leave the loaded domain, and some that stay inside it at its edges:
// three flag escapes, three timestamp escapes.
func ruleEscapingRows() []tuple.Row {
	flags := []string{"zstd", "gzip ", "gzi", "gzip", "", "utf-8,gzip", "", "", "", "utf-8"}
	stamps := []string{"20111340123456", ts14(1 << 32), "2011010412345", ts14(0), ts14(1<<32 - 1)}
	rows := make([]tuple.Row, len(flags))
	for i := range rows {
		rows[i] = ruleRow(int64(i))
		rows[i][ruleFlags] = tuple.String(flags[i])
		if i < len(stamps) {
			rows[i][ruleTS] = tuple.Char(stamps[i])
		}
	}
	rows[6][ruleFlags], rows[6][ruleTS] = tuple.Null(tuple.KindString), tuple.Null(tuple.KindChar)
	return rows
}

// loadRuleSlots creates the rule table as loadSlots creates the slot
// table: its layout has a dictionary slot and a timestamp slot.
func loadRuleSlots(t *testing.T, e *Engine) (*Table, map[int64]tuple.Row) {
	t.Helper()
	tbl, want := loadTable(t, e, "rules", ruleSchema(), ruleRow, ruleEscapingRows())
	l := tbl.Schema().Packed()
	if l.StringSlots() != tuple.RuleSlots {
		t.Fatalf("layout %v: want rule slots", l)
	}
	spec := l.Spec()
	if !reflect.DeepEqual(spec[1:], []tuple.FieldPacking{
		{Bits: 2, Rule: tuple.RuleDict, Dict: []string{"", "gzip", "utf-8", "utf-8,gzip"}},
		{Bits: 32, Rule: tuple.RuleTS14}, {}}) {
		t.Fatalf("layout %+v: want flags as a 2-bit dictionary, ts as a 32-bit timestamp, body verbatim", spec)
	}
	if got := landedEscapes(t, tbl); !reflect.DeepEqual(got, []int64{0, 3, 3, 0}) {
		t.Fatalf("escapes per field %v, want three flags and three timestamps", got)
	}
	return tbl, want
}

// landedEscapes counts, per field, the packed records in tbl's heap
// that escape its layout there: each is decoded, encoded again (which
// must give back its bytes) and its escape bitmap read.
func landedEscapes(t *testing.T, tbl *Table) []int64 {
	t.Helper()
	schema := tbl.Schema()
	fields := schema.Packed().EscapeFields()
	per := make([]int64, schema.NumFields())
	err := tbl.file.Scan(func(rid storage.RID, rec []byte) bool {
		if rec[0] != tuple.TagPacked {
			return true
		}
		row, _, err := tuple.Decode(schema, rec)
		if err != nil {
			t.Fatalf("decoding %v: %v", rid, err)
		}
		again, esc, err := tuple.EncodeEscapes(schema, row, nil)
		if err != nil || !bytes.Equal(again, rec) {
			t.Fatalf("%v encodes again as %x (%v), want %x", rid, again, err, rec)
		}
		for k, f := range fields {
			if esc&(1<<k) != 0 {
				per[f]++
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return per
}

// loadTable creates a table of schema indexed by_id on its first field:
// row(0) alone (declared), rows 1–255 in one Apply, which adopts the
// layout from all 256, then the updates in another.
func loadTable(t *testing.T, e *Engine, name string, schema *tuple.Schema, row func(int64) tuple.Row, updates []tuple.Row) (*Table, map[int64]tuple.Row) {
	t.Helper()
	tbl, err := e.CreateTable(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateIndex("by_id", []string{"id"}); err != nil {
		t.Fatal(err)
	}
	want := map[int64]tuple.Row{0: row(0)}
	if _, err := tbl.Insert(want[0]); err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := int64(1); i < 256; i++ {
		want[i] = row(i)
		b.Insert(want[i])
	}
	if _, err := tbl.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if tbl.Schema().Packed() == nil {
		t.Fatal("no layout adopted")
	}
	b.Reset()
	ix := mustIndex(t, tbl, "by_id")
	for _, row := range updates {
		rid, ok, err := ix.LookupRID(row[0])
		if err != nil || !ok {
			t.Fatalf("lookup %d: %v %v", row[0].Int, ok, err)
		}
		b.Update(rid, row)
		want[row[0].Int] = row
	}
	if _, err := tbl.Apply(&b); err != nil {
		t.Fatal(err)
	}
	return tbl, want
}

// checkSlotRows reads every row back through the copying and the view
// read paths.
func checkSlotRows(t *testing.T, tbl *Table, want map[int64]tuple.Row) {
	t.Helper()
	checkReopenRows(t, tbl, want)
	var cur Cursor
	for id, row := range want {
		if err := tbl.QueryInto(&cur, WithIndex("by_id"), WithPrefix(tuple.Int64(id))); err != nil {
			t.Fatal(err)
		}
		if !cur.Next() || !cur.Row().Equal(row) {
			t.Fatalf("point QueryInto(%d) = %v (%v), want %v", id, cur.Row(), cur.Err(), row)
		}
		cur.Close()
	}
	if err := tbl.QueryInto(&cur, WithIndex("by_id")); err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; cur.Next(); n++ {
		if row := cur.Row(); !row.Equal(want[row[0].Int]) {
			t.Fatalf("QueryInto row %v, want %v", row, want[row[0].Int])
		}
	}
	if err := cur.Close(); err != nil || n != len(want) {
		t.Fatalf("QueryInto served %d rows of %d (%v)", n, len(want), err)
	}
	c, err := tbl.Query() // heap order, copies
	if err != nil {
		t.Fatal(err)
	}
	for n = 0; c.Next(); n++ {
		if row := c.Row(); !row.Equal(want[row[0].Int]) {
			t.Fatalf("heap scan row %v, want %v", row, want[row[0].Int])
		}
	}
	if err := c.Close(); err != nil || n != len(want) {
		t.Fatalf("heap scan served %d rows of %d (%v)", n, len(want), err)
	}
}

// slotTables are the tables the reopen tests recover, each with the
// record type its adoption is logged under: digit slots, and a
// dictionary and a timestamp slot.
var slotTables = []struct {
	name string
	load func(*testing.T, *Engine) (*Table, map[int64]tuple.Row)
	typ  uint8
}{
	{"slots", loadSlots, recAdoptStrings},
	{"rules", loadRuleSlots, recAdoptRules},
}

// TestReopenStringSlotsFromWAL: a copy of the files taken without a
// checkpoint recovers from the log alone. The adoption is logged under
// the record type of its slots (recAdoptStrings, recAdoptRules) and
// replays before the records written in the layout, so every row reads
// back — its strings slotted, escaped or NULL.
func TestReopenStringSlotsFromWAL(t *testing.T) {
	for _, st := range slotTables {
		dir, crash := t.TempDir(), t.TempDir()
		e, err := NewEngine(noCheckpointOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tbl, want := st.load(t, e)
		spec := tbl.Schema().Packed().Spec()
		copyDBFiles(t, dir, crash)

		types := walTypes(t, filepath.Join(crash, "db.wal"))
		if types[st.typ] != 1 || types[recAdoptLayout]+types[recAdoptStrings]+types[recAdoptRules] != 1 {
			t.Fatalf("%s: log record types %v: want one adoption, of type %d", st.name, types, st.typ)
		}
		e2, err := NewEngine(noCheckpointOptions(crash))
		if err != nil {
			t.Fatalf("%s: recover from the WAL: %v", st.name, err)
		}
		defer e2.Close()
		tbl2, err := e2.Table(st.name)
		if err != nil {
			t.Fatal(err)
		}
		if l := tbl2.Schema().Packed(); l == nil || !reflect.DeepEqual(l.Spec(), spec) {
			t.Fatalf("%s: recovered layout %v, want %v", st.name, l, spec)
		}
		checkSlotRows(t, tbl2, want)
	}
}

// TestReopenStringSlotsFromManifest: after a checkpoint the layout, its
// string slots' prefixes, digit counts, rules and dictionaries included,
// is the table's manifest entry, at manifest version 5, and the reopened
// table reads every row with it.
func TestReopenStringSlotsFromManifest(t *testing.T) {
	for _, st := range slotTables {
		dir := t.TempDir()
		e, err := NewEngine(noCheckpointOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		tbl, want := st.load(t, e)
		spec := tbl.Schema().Packed().Spec()
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		m, err := loadManifest(filepath.Join(dir, "db.manifest"))
		if err != nil {
			t.Fatal(err)
		}
		if m.Version != 5 || len(m.Tables) != 1 || !reflect.DeepEqual(m.Tables[0].Layout, spec) {
			t.Fatalf("manifest version %d, tables %+v: want version 5 with layout %v", m.Version, m.Tables, spec)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e2, err := NewEngine(noCheckpointOptions(dir))
		if err != nil {
			t.Fatalf("%s: reopen: %v", st.name, err)
		}
		defer e2.Close()
		tbl2, err := e2.Table(st.name)
		if err != nil {
			t.Fatal(err)
		}
		if l := tbl2.Schema().Packed(); l == nil || !reflect.DeepEqual(l.Spec(), spec) {
			t.Fatalf("%s: reopened layout %v, want %v", st.name, l, spec)
		}
		checkSlotRows(t, tbl2, want)
	}
}

// The checks a binary that predates string slots makes on what it
// reopens, as it makes them: its manifest loader accepts version 2 only,
// and its redo knows record types 1–8 and fails on any other.
func version2OpensManifest(m *manifest) bool { return m.Version == 2 }
func version2KnowsRecord(typ uint8) bool     { return typ >= recBatch && typ <= recAdoptLayout }

// TestStringSlotFilesRefusedByVersion2: files holding string slots fail
// a version-2 binary's checks instead of being misread — their manifest
// is a later version and their adoption record a type that binary does
// not know — while a table without string slots still logs the record
// it replays. This binary refuses a version-2 manifest.
func TestStringSlotFilesRefusedByVersion2(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(noCheckpointOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	loadSlots(t, e)
	ints, err := e.CreateTable("ints", wideSchema())
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := int64(0); i < layoutSample; i++ {
		b.Insert(wideRow(i, i%5))
	}
	if _, err := ints.Apply(&b); err != nil || ints.Schema().Packed() == nil {
		t.Fatalf("ints adopted %v (%v)", ints.Schema().Packed(), err)
	}
	types := walTypes(t, filepath.Join(dir, "db.wal"))
	if types[recAdoptStrings] != 1 || types[recAdoptLayout] != 1 {
		t.Fatalf("log record types %v: want one adoption of each type", types)
	}
	for typ := range types {
		if want := typ != recAdoptStrings; version2KnowsRecord(typ) != want {
			t.Fatalf("a version-2 binary knows record type %d: %v, want %v", typ, !want, want)
		}
	}
	if err := e.Close(); err != nil { // Close checkpoints
		t.Fatal(err)
	}
	path := filepath.Join(dir, "db.manifest")
	if m, err := loadManifest(path); err != nil || version2OpensManifest(m) {
		t.Fatalf("a version-2 binary opens the manifest: version %d (%v)", m.Version, err)
	}
	setManifestVersion(t, path, 2)
	if e, err := NewEngine(noCheckpointOptions(dir)); err == nil || !strings.Contains(err.Error(), "format version 2") {
		if err == nil {
			e.Close()
		}
		t.Fatalf("a version-2 manifest: %v; want it refused, naming version 2", err)
	}
}

// The checks a binary that knows digit slots but no other string slot
// makes on what it reopens, as it makes them: its manifest loader
// accepts versions 2 and 3, and its redo knows record types 1–9.
func version3OpensManifest(m *manifest) bool { return m.Version == 2 || m.Version == 3 }
func version3KnowsRecord(typ uint8) bool     { return typ >= recBatch && typ <= recAdoptStrings }

// TestRuleSlotFilesRefusedByVersion3: files holding a dictionary or a
// timestamp slot fail the checks of a binary that knows only digit slots
// — their manifest is a later version and their adoption record a type
// that binary does not know — while a table with digit slots still logs
// the record it replays. This binary refuses a version-3 manifest.
func TestRuleSlotFilesRefusedByVersion3(t *testing.T) {
	dir := t.TempDir()
	e, err := NewEngine(noCheckpointOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	loadRuleSlots(t, e)
	loadSlots(t, e)
	types := walTypes(t, filepath.Join(dir, "db.wal"))
	if types[recAdoptRules] != 1 || types[recAdoptStrings] != 1 {
		t.Fatalf("log record types %v: want one adoption of each slot type", types)
	}
	for typ := range types {
		if want := typ != recAdoptRules; version3KnowsRecord(typ) != want {
			t.Fatalf("a version-3 binary knows record type %d: %v, want %v", typ, !want, want)
		}
	}
	if err := e.Close(); err != nil { // Close checkpoints
		t.Fatal(err)
	}
	path := filepath.Join(dir, "db.manifest")
	if m, err := loadManifest(path); err != nil || version3OpensManifest(m) {
		t.Fatalf("a version-3 binary opens the manifest: version %d (%v)", m.Version, err)
	}
	setManifestVersion(t, path, 3)
	if e, err := NewEngine(noCheckpointOptions(dir)); err == nil || !strings.Contains(err.Error(), "format version 3") {
		if err == nil {
			e.Close()
		}
		t.Fatalf("a version-3 manifest: %v; want it refused, naming version 3", err)
	}
}

// setManifestVersion rewrites the manifest at path as version v.
func setManifestVersion(t *testing.T, path string, v int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = v
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// walTypes counts the log's records by type.
func walTypes(t *testing.T, path string) map[uint8]int {
	t.Helper()
	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	types := map[uint8]int{}
	if err := l.Replay(0, func(_ uint64, typ uint8, _ []byte) error {
		types[typ]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return types
}

// TestRebuiltStringsAreViews: a string a string slot rebuilds for a view
// read is a view of the reader's scratch, as a verbatim one is of its
// record — a QueryInto cursor's, point or range, until the next Next or
// Close — and reads as poison after that. Latest and transaction reads
// share the rule.
func TestRebuiltStringsAreViews(t *testing.T) {
	e := newTestEngine(t)
	tbl, want := loadSlots(t, e)
	var point Cursor
	if err := tbl.QueryInto(&point, WithIndex("by_id"), WithPrefix(tuple.Int64(100))); err != nil {
		t.Fatal(err)
	}
	if !point.Next() {
		t.Fatalf("point QueryInto(100): no row: %v", point.Err())
	}
	kept := point.Row()[slotName].Str
	if err := point.Close(); err != nil {
		t.Fatal(err)
	}
	if !poisoned(kept) {
		t.Fatalf("point QueryInto: a rebuilt string kept past Close reads %q, want poison", kept)
	}

	tx := e.Begin()
	defer tx.Abort()
	// Row 20's name is NULL and its code is not projected, so serving it
	// rebuilds nothing: row 19's name lies in poisoned scratch after Next.
	opts := []QueryOption{WithIndex("by_id"), WithProjection("id", "name"),
		WithKeyRange([]tuple.Value{tuple.Int64(19)}, []tuple.Value{tuple.Int64(22)})}
	var cur Cursor
	for _, open := range []struct {
		name string
		fn   func() error
	}{
		{"Table.QueryInto", func() error { return tbl.QueryInto(&cur, opts...) }},
		{"Txn.QueryInto", func() error { return tx.QueryInto(&cur, tbl, opts...) }},
	} {
		if err := open.fn(); err != nil {
			t.Fatalf("%s: %v", open.name, err)
		}
		if !cur.Next() || cur.Row()[1].Str != want[19][slotName].Str {
			t.Fatalf("%s: first row %v (%v)", open.name, cur.Row(), cur.Err())
		}
		first := cur.Row()[1].Str
		if !cur.Next() || !cur.Row()[1].Null {
			t.Fatalf("%s: second row %v (%v)", open.name, cur.Row(), cur.Err())
		}
		if !poisoned(first) {
			t.Fatalf("%s: a rebuilt string kept past Next reads %q, want poison", open.name, first)
		}
		if !cur.Next() || cur.Row()[1].Str != want[21][slotName].Str {
			t.Fatalf("%s: third row %v (%v)", open.name, cur.Row(), cur.Err())
		}
		third := cur.Row()[1].Str
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if !poisoned(third) {
			t.Fatalf("%s: a rebuilt string kept past Close reads %q, want poison", open.name, third)
		}
	}
}

// TestTxnStagedRowKeepsRebuiltString: a transaction's staged row is a
// view of its arena, a string its string slot rebuilds included. It
// holds through the transaction's later stages and reads and through
// another transaction's, until Commit computes the index keys from it;
// then the arena dies and the string reads as poison.
func TestTxnStagedRowKeepsRebuiltString(t *testing.T) {
	e := newTestEngine(t)
	tb, err := e.CreateTable("users", tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "name", Kind: tuple.KindString},
	))
	if err != nil {
		t.Fatal(err)
	}
	byName, err := tb.CreateIndex("by_name", []string{"name"})
	if err != nil {
		t.Fatal(err)
	}
	user := func(id, n int64) tuple.Row {
		return tuple.Row{tuple.Int64(id), tuple.String(fmt.Sprintf("user-%05d", n))}
	}
	var b Batch
	for i := int64(0); i < 200; i++ {
		b.Insert(user(i, 2*i)) // even numbers: the odd ones are free
	}
	if _, err := tb.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if l := tb.Schema().Packed(); l == nil || l.StringSlots() != tuple.DigitSlots {
		t.Fatalf("layout %v: want name in a string slot", l)
	}
	rid, ok, err := byName.LookupRID(tuple.String("user-00006"))
	if err != nil || !ok {
		t.Fatalf("lookup user-00006: %v %v", ok, err)
	}

	// One arena chunk holds the whole stage: the first Apply reserves room
	// for the second's one op.
	tx := e.Begin()
	b.Reset()
	b.Insert(user(1000, 151)).Update(rid, user(3, 7))
	for i := int64(0); i < 40; i++ {
		b.Insert(user(2000+i, 201+2*i))
	}
	if _, err := tx.Apply(tb, &b); err != nil {
		t.Fatal(err)
	}
	staged := tx.tables[0].ops
	inserted, updated, pre := staged[0].row[1].Str, staged[1].row[1].Str, staged[1].oldRow[1].Str
	if inserted != "user-00151" || updated != "user-00007" || pre != "user-00006" {
		t.Fatalf("staged %q, %q over %q", inserted, updated, pre)
	}
	// More of this transaction's stage, its reads, and another's stage.
	b.Reset()
	b.Insert(user(4000, 997))
	if _, err := tx.Apply(tb, &b); err != nil {
		t.Fatal(err)
	}
	staged = tx.tables[0].ops
	var cur Cursor
	if err := tx.QueryInto(&cur, tb, WithIndex("by_name")); err != nil {
		t.Fatal(err)
	}
	for cur.Next() {
	}
	cur.Close()
	if err := tb.QueryInto(&cur, WithIndex("by_name"), WithPrefix(tuple.String("user-00008"))); err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("point QueryInto(user-00008): no row: %v", cur.Err())
	}
	cur.Close()
	other := e.Begin()
	b.Reset()
	b.Insert(user(3000, 999))
	if _, err := other.Apply(tb, &b); err != nil {
		t.Fatal(err)
	}
	other.Abort()
	if s, u, p := staged[0].row[1].Str, staged[1].row[1].Str, staged[1].oldRow[1].Str; s != inserted || u != updated || p != pre {
		t.Fatalf("before Commit the staged names read %q, %q over %q", s, u, p)
	}

	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for name, id := range map[string]int64{"user-00151": 1000, "user-00007": 3, "user-00279": 2039, "user-00997": 4000} {
		row, res, err := byName.Lookup(nil, tuple.String(name))
		if err != nil || !res.Found || row[0].Int != id {
			t.Fatalf("by_name %q: %v %+v (%v), want id %d", name, row, res, err, id)
		}
	}
	if _, res, err := byName.Lookup(nil, tuple.String("user-00006")); err != nil || res.Found {
		t.Fatalf("the updated row's old name still finds a row (%v)", err)
	}
	if !poisoned(inserted) || !poisoned(updated) || !poisoned(pre) {
		t.Fatalf("after Commit the staged names read %q, %q over %q: want poison", inserted, updated, pre)
	}
}
