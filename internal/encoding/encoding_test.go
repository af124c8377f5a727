package encoding

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

// TestPropertyBitRoundTrip: integers at any width from 1 to 63 bits,
// packed side by side across byte boundaries, read back as stored and
// take no escape.
func TestPropertyBitRoundTrip(t *testing.T) {
	f := func(vals []uint64, widthsRaw []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(widthsRaw) == 0 {
			widthsRaw = []uint8{17}
		}
		fields := make([]tuple.Field, len(vals))
		spec := make([]tuple.FieldPacking, len(vals))
		row := make(tuple.Row, len(vals))
		for i, v := range vals {
			n := 1 + int(widthsRaw[i%len(widthsRaw)]%63)
			fields[i] = tuple.Field{Name: fmt.Sprint("f", i), Kind: tuple.KindInt64}
			spec[i].Bits = n
			row[i] = tuple.Int64(int64(v & (1<<uint(n) - 1)))
		}
		s := tuple.MustSchema(fields...)
		l, err := tuple.NewLayout(s, spec)
		if err != nil || s.Adopt(l) != nil {
			return false
		}
		rec, esc, err := tuple.EncodeEscapes(s, row, nil)
		if err != nil || esc != 0 {
			return false
		}
		back, _, err := tuple.Decode(s, rec)
		return err == nil && back.Equal(row)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 256: 8, 257: 9}
	for n, want := range cases {
		if got := BitsFor(n); got != want {
			t.Errorf("BitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTimestamp14RoundTrip(t *testing.T) {
	for _, epoch := range []int64{0, 1, 86399, 86400, 1262304000, 1893456000} {
		s := string(tuple.AppendTS14(nil, epoch))
		if len(s) != 14 {
			t.Fatalf("AppendTS14(%d) = %q, not 14 chars", epoch, s)
		}
		back, ok := tuple.ParseTS14(s)
		if !ok || back != epoch {
			t.Errorf("ParseTS14(AppendTS14(%d)) = %d, %v", epoch, back, ok)
		}
	}
}

func TestParseTS14Rejects(t *testing.T) {
	bad := []string{"", "2011", "2011010412345x", "00000000000000", "19691231235959", "20111340123456"}
	for _, s := range bad {
		if _, ok := tuple.ParseTS14(s); ok {
			t.Errorf("ParseTS14(%q) accepted", s)
		}
	}
}

func TestAdviseSmallRangeBigint(t *testing.T) {
	f := tuple.Field{Name: "flag", Kind: tuple.KindInt64}
	p := NewColumnProfile(f)
	for i := 0; i < 100; i++ {
		p.Observe(tuple.Int64(int64(i % 2)))
	}
	rec := Advise(p)
	if rec.Enc != EncInt || rec.Bits != 1 {
		t.Errorf("0/1 BIGINT should advise 1-bit int, got %v/%d", rec.Enc, rec.Bits)
	}
}

func TestAdviseOffsetRange(t *testing.T) {
	f := tuple.Field{Name: "year", Kind: tuple.KindInt64}
	p := NewColumnProfile(f)
	for y := 2000; y < 2012; y++ {
		p.Observe(tuple.Int64(int64(y)))
	}
	rec := Advise(p)
	if rec.Enc != EncInt || rec.Offset != 2000 || rec.Bits != 4 {
		t.Errorf("range [2000,2011] should be 4 bits offset 2000, got %+v", rec)
	}
}

func TestAdviseTimestampString(t *testing.T) {
	f := tuple.Field{Name: "ts", Kind: tuple.KindChar, Size: 14}
	p := NewColumnProfile(f)
	for i := 0; i < 50; i++ {
		p.Observe(tuple.Char(ts14(int64(1262304000 + i*1000))))
	}
	rec := Advise(p)
	if rec.Enc != EncEpoch32 || rec.Bits != 32 {
		t.Errorf("timestamp14 string should advise epoch32, got %+v", rec)
	}
	if got := RecordPacking([]*ColumnProfile{p})[0]; !reflect.DeepEqual(got, tuple.FieldPacking{Bits: 32, Rule: tuple.RuleTS14}) {
		t.Errorf("timestamp14 string packs as %+v, want a 32-bit timestamp slot", got)
	}
}

func TestAdviseNumericString(t *testing.T) {
	f := tuple.Field{Name: "zip", Kind: tuple.KindString}
	p := NewColumnProfile(f)
	for i := 0; i < 200; i++ {
		p.Observe(tuple.String(zeroPad(i*37%99999, 5)))
	}
	rec := Advise(p)
	if rec.Enc != EncNumericString {
		t.Errorf("digit strings should advise numeric-string, got %+v", rec)
	}
}

func zeroPad(n, width int) string {
	s := ""
	for i := 0; i < width; i++ {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestAdviseDictionaryOnlyWithRepetition(t *testing.T) {
	f := tuple.Field{Name: "status", Kind: tuple.KindString}
	repeated := NewColumnProfile(f)
	opts := []string{"active", "deleted", "pending"}
	for i := 0; i < 500; i++ {
		repeated.Observe(tuple.String(opts[i%3]))
	}
	if rec := Advise(repeated); rec.Enc != EncDict {
		t.Errorf("3 values over 500 rows should advise dictionary, got %+v", rec)
	}
	want := tuple.FieldPacking{Bits: 2, Rule: tuple.RuleDict, Dict: opts}
	if got := RecordPacking([]*ColumnProfile{repeated})[0]; !reflect.DeepEqual(got, want) {
		t.Errorf("3 values pack as %+v, want %+v", got, want)
	}
	unique := NewColumnProfile(tuple.Field{Name: "body", Kind: tuple.KindString})
	for i := 0; i < 500; i++ {
		unique.Observe(tuple.String(zeroPad(i, 4) + "-unique-content-with-padding-xyz"))
	}
	if rec := Advise(unique); rec.Enc == EncDict {
		t.Error("unique strings must not advise dictionary (dict storage outweighs)")
	}
}

func TestAdviseIntegralFloats(t *testing.T) {
	p := NewColumnProfile(tuple.Field{Name: "count", Kind: tuple.KindFloat64})
	for i := 0; i < 100; i++ {
		p.Observe(tuple.Float64(float64(i % 50)))
	}
	rec := Advise(p)
	if rec.Enc != EncInt {
		t.Errorf("integral floats should advise int, got %+v", rec)
	}
	p2 := NewColumnProfile(tuple.Field{Name: "lat", Kind: tuple.KindFloat64})
	for i := 0; i < 100; i++ {
		p2.Observe(tuple.Float64(42.3 + float64(i)/1000))
	}
	if rec := Advise(p2); rec.Enc != EncFloat {
		t.Errorf("true floats should stay float64, got %+v", rec)
	}
}

func TestAdviseNullability(t *testing.T) {
	p := NewColumnProfile(tuple.Field{Name: "x", Kind: tuple.KindInt64})
	p.Observe(tuple.Int64(5))
	p.Observe(tuple.Null(tuple.KindInt64))
	rec := Advise(p)
	if !rec.Nullable {
		t.Error("column with NULLs must be nullable")
	}
}

func packedTestSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "flag", Kind: tuple.KindInt64},
		tuple.Field{Name: "speed", Kind: tuple.KindInt64},
		tuple.Field{Name: "ratio", Kind: tuple.KindFloat64},
		tuple.Field{Name: "ts", Kind: tuple.KindChar, Size: 14},
		tuple.Field{Name: "status", Kind: tuple.KindString},
		tuple.Field{Name: "note", Kind: tuple.KindString},
		tuple.Field{Name: "when", Kind: tuple.KindTimestamp},
	)
}

func packedTestRow(rng *rand.Rand, i int) tuple.Row {
	statuses := []string{"a", "b", "c", "d"}
	row := tuple.Row{
		tuple.Int64(int64(i % 2)),
		tuple.Int64(int64(rng.Intn(200))),
		tuple.Float64(rng.NormFloat64()),
		tuple.Char(ts14(int64(1262304000 + rng.Intn(1_000_000)))),
		tuple.String(statuses[rng.Intn(len(statuses))]),
		tuple.String(zeroPad(rng.Intn(100000), 3+rng.Intn(4)) + "-free-text"),
		tuple.TimestampUnix(int64(rng.Intn(2_000_000_000))),
	}
	if rng.Intn(10) == 0 {
		row[1] = tuple.Null(tuple.KindInt64)
	}
	return row
}

func ts14(epoch int64) string { return string(tuple.AppendTS14(nil, epoch)) }

// analyze profiles rows and returns the report and a copy of schema
// that writes rows in the layout the report's recommendations describe.
func analyze(t *testing.T, schema *tuple.Schema, rows []tuple.Row) (TableReport, *tuple.Schema) {
	t.Helper()
	i := 0
	report := AnalyzeRows("t", schema, func() (tuple.Row, bool) {
		if i == len(rows) {
			return nil, false
		}
		i++
		return rows[i-1], true
	})
	packed, err := PackedSchema(schema, report)
	if err != nil {
		t.Fatalf("PackedSchema: %v", err)
	}
	return report, packed
}

// roundTrip encodes each row under s, checks which escaped, and reads it
// back; it returns the bytes the records took.
func roundTrip(t *testing.T, s *tuple.Schema, rows []tuple.Row, escapes bool) int {
	t.Helper()
	n := 0
	for j, row := range rows {
		rec, esc, err := tuple.EncodeEscapes(s, row, nil)
		if err != nil || (esc != 0) != escapes {
			t.Fatalf("row %d %v: escapes %b, want any %v (%v)", j, row, esc, escapes, err)
		}
		back, _, err := tuple.Decode(s, rec)
		if err != nil || !back.Equal(row) {
			t.Fatalf("row %d did not round-trip:\n got %v\nwant %v (%v)", j, back, row, err)
		}
		n += len(rec)
	}
	return n
}

func TestRecordPackingRoundTripFromAdvice(t *testing.T) {
	schema := packedTestSchema()
	rng := rand.New(rand.NewSource(31))
	rows := make([]tuple.Row, 400)
	for i := range rows {
		rows[i] = packedTestRow(rng, i)
	}
	_, packed := analyze(t, schema, rows)
	stored := roundTrip(t, packed, rows, false)
	// The packed form must actually be denser than the declared codec.
	var declared int
	for _, r := range rows {
		n, err := tuple.DeclaredSize(schema, r)
		if err != nil {
			t.Fatal(err)
		}
		declared += n
	}
	if stored >= declared {
		t.Errorf("packed %d bytes not smaller than declared %d", stored, declared)
	}
}

// A value outside the profiled range, and a NULL in a column the profile
// saw none in, escape: they are stored, not refused.
func TestRecordPackingEscapesOutOfRange(t *testing.T) {
	schema := tuple.MustSchema(tuple.Field{Name: "x", Kind: tuple.KindInt64})
	rows := make([]tuple.Row, 10)
	for i := range rows {
		rows[i] = tuple.Row{tuple.Int64(int64(i))}
	}
	_, packed := analyze(t, schema, rows)
	roundTrip(t, packed, rows, false)
	roundTrip(t, packed, []tuple.Row{{tuple.Int64(1000)}, {tuple.Int64(-1)}}, true)
	roundTrip(t, packed, []tuple.Row{{tuple.Null(tuple.KindInt64)}}, false)
}

// A profile spanning the whole int64 range advises 64 bits, which the
// layout stores at the declared width: extreme values round-trip and
// none escapes. A narrower profile still escapes what it does not span.
func TestRecordPackingFullWidthInt(t *testing.T) {
	schema := tuple.MustSchema(tuple.Field{Name: "x", Kind: tuple.KindInt64})
	var rows []tuple.Row
	for _, x := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		rows = append(rows, tuple.Row{tuple.Int64(x)})
	}
	report, packed := analyze(t, schema, rows)
	if rec := report.Columns[0].Rec; rec.Bits != 64 || rec.Offset != math.MinInt64 {
		t.Fatalf("advice %+v, want 64 bits from MinInt64", rec)
	}
	roundTrip(t, packed, rows, false)

	_, narrow := analyze(t, schema, []tuple.Row{{tuple.Int64(0)}, {tuple.Int64(15)}})
	roundTrip(t, narrow, []tuple.Row{{tuple.Int64(16)}, {tuple.Int64(-1)}}, true)
}

func TestWasteReportInvariants(t *testing.T) {
	schema := packedTestSchema()
	rng := rand.New(rand.NewSource(37))
	i := 0
	report := AnalyzeRows("t", schema, func() (tuple.Row, bool) {
		if i >= 300 {
			return nil, false
		}
		r := packedTestRow(rng, i)
		i++
		return r, true
	})
	if report.Rows != 300 {
		t.Errorf("Rows = %d", report.Rows)
	}
	if report.WastePct() < 0 || report.WastePct() > 100 {
		t.Errorf("WastePct = %f", report.WastePct())
	}
	if report.OptimalBytes() > report.DeclaredBytes() {
		t.Error("optimal exceeds declared")
	}
	for _, c := range report.Columns {
		if c.WastePct() < 0 || c.WastePct() > 100 {
			t.Errorf("column %s WastePct = %f", c.Rec.Field.Name, c.WastePct())
		}
	}
}

// The profile's prefix is the longest one every value shares, and the
// decimals after it are re-read as the prefix narrows: the bytes cut off
// it become their leading digits.
func TestProfilePrefixAndRest(t *testing.T) {
	type rest struct {
		prefix         string
		lo, hi         int64
		minLen, maxLen int
		ok             bool
	}
	for _, c := range []struct {
		values []string
		want   rest
	}{
		{[]string{"item-0000000000000199900", "item-0000000000000001812", "item-0000000000000054321"},
			rest{"item-0000000000000", 1812, 199900, 6, 6, true}},
		{[]string{"a7", "a70", "a700"}, rest{"a7", 0, 0, 0, 2, true}},
		{[]string{"a7", "a81"}, rest{"a", 7, 81, 1, 2, true}},
		{[]string{"5", "17", "123"}, rest{"", 5, 123, 1, 3, true}},
		{[]string{"0", "000"}, rest{"0", 0, 0, 0, 2, true}},
		{[]string{"x-1", "y-1"}, rest{"", 0, 0, 0, 0, false}},                  // a cut that is not a decimal
		{[]string{"id-1", "id-1x"}, rest{"id-1", 0, 0, 0, 0, false}},           // a remainder that is not one
		{[]string{"n0000000000000000001", "n1"}, rest{"n", 0, 0, 0, 0, false}}, // 19 digits
		{[]string{"n000000000000000001", "n1"}, rest{"n", 1, 1, 1, 18, true}},
	} {
		p := NewColumnProfile(tuple.Field{Name: "s", Kind: tuple.KindString})
		p.Observe(tuple.Null(tuple.KindString))
		for _, v := range c.values {
			p.Observe(tuple.String(v))
		}
		lo, hi, minLen, maxLen, ok := p.Rest()
		got := rest{p.Prefix, lo, hi, minLen, maxLen, ok}
		if !ok {
			got = rest{prefix: p.Prefix}
		}
		if got != c.want {
			t.Errorf("%q: prefix and rest %+v, want %+v", c.values, got, c.want)
		}
	}
}

// A column of prefixed decimals — the benchmark's names have this shape,
// as do wiki titles — advises a numeric string with its prefix, and the
// engine's packing is the same advice as a string slot; a column with a
// non-digit remainder is left alone, and a constant one is a dictionary
// of one value in no bits. A prefix or a dictionary that is not valid
// UTF-8 is left alone too.
func TestAdvisePrefixedNumericString(t *testing.T) {
	p := NewColumnProfile(tuple.Field{Name: "name", Kind: tuple.KindString})
	for _, id := range []int{199900, 1812, 54321} {
		p.Observe(tuple.String(fmt.Sprintf("item-%019d", id)))
	}
	rec := Advise(p)
	if rec.Enc != EncNumericString || rec.Prefix != "item-0000000000000" || rec.Digits != 6 ||
		rec.Bits != 18 || rec.Offset != 1812 {
		t.Fatalf("advice %+v", rec)
	}
	if got := RecordPacking([]*ColumnProfile{p})[0]; !reflect.DeepEqual(got, tuple.FieldPacking{Bits: 18, Offset: 1812, Prefix: "item-0000000000000", Digits: 6}) {
		t.Fatalf("packing %+v", got)
	}
	if bits := rec.BitsPerValue(p); bits != 18+8*18.0/3 {
		t.Errorf("%v bits per value, want 18 plus the prefix amortized", bits)
	}
	for _, c := range []struct {
		values []string
		want   tuple.FieldPacking
	}{
		{[]string{"0123abcd/x", "89ab0123/x"}, tuple.FieldPacking{}},
		{[]string{"same", "same"}, tuple.FieldPacking{Rule: tuple.RuleDict, Dict: []string{"same"}}},
		// Not valid UTF-8, which a layout's JSON would not carry back.
		{[]string{"\xff1", "\xff2"}, tuple.FieldPacking{}},
		{[]string{"a\xff", "a\xff", "b"}, tuple.FieldPacking{}},
	} {
		q := NewColumnProfile(tuple.Field{Name: "body", Kind: tuple.KindString})
		for _, v := range c.values {
			q.Observe(tuple.String(v))
		}
		if got := RecordPacking([]*ColumnProfile{q})[0]; !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q packs as %+v, want %+v", c.values, got, c.want)
		}
	}
}

// Numeric strings, VARCHAR and CHAR, round-trip through their string
// slots with and without a stored digit count, leading zeros and an
// empty remainder included; a value outside the profile escapes.
func TestRecordPackingNumericStrings(t *testing.T) {
	schema := tuple.MustSchema(tuple.Field{Name: "fixed", Kind: tuple.KindString}, tuple.Field{Name: "varying", Kind: tuple.KindChar, Size: 12})
	rows := []tuple.Row{
		{tuple.String("user-0042"), tuple.Char("r-0")},
		{tuple.String("user-0000"), tuple.Char("r-000")},
		{tuple.String("user-1999"), tuple.Char("r-")},
		{tuple.String("user-0100"), tuple.Char("r-987654")},
	}
	report, packed := analyze(t, schema, rows)
	recs := []Recommendation{report.Columns[0].Rec, report.Columns[1].Rec}
	if recs[0].Enc != EncNumericString || recs[0].Prefix != "user-" || recs[0].Digits != 4 ||
		recs[1].Enc != EncNumericString || recs[1].Prefix != "r-" || recs[1].Digits != 0 {
		t.Fatalf("advice %+v", recs)
	}
	if slots := packed.Packed().StringSlots(); slots != tuple.RuleSlots {
		t.Fatalf("string slots %v: a CHAR slot is a RuleSlots layout", slots)
	}
	roundTrip(t, packed, rows, false)
	for _, bad := range []string{"user-042", "usr-0042", "user-004x"} {
		roundTrip(t, packed, []tuple.Row{{tuple.String(bad), tuple.Char("r-1")}}, true)
	}
}
