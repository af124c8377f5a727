package encoding

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0b101, 3)
	w.WriteBool(true)
	w.WriteBits(0xDEADBEEF, 32)
	w.WriteBytes([]byte{1, 2, 3})
	w.WriteBits(0, 0) // zero-width write is a no-op

	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("3-bit value = %b", v)
	}
	if b, _ := r.ReadBool(); !b {
		t.Error("bool = false")
	}
	if v, _ := r.ReadBits(32); v != 0xDEADBEEF {
		t.Errorf("32-bit value = %x", v)
	}
	if bs, _ := r.ReadBytes(3); bs[0] != 1 || bs[1] != 2 || bs[2] != 3 {
		t.Errorf("bytes = %v", bs)
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(9); err == nil {
		t.Error("reading past the end should fail")
	}
}

func TestPropertyBitRoundTrip(t *testing.T) {
	f := func(vals []uint64, widthsRaw []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(widthsRaw) == 0 {
			widthsRaw = []uint8{17}
		}
		w := NewBitWriter()
		widths := make([]int, len(vals))
		for i, v := range vals {
			n := 1 + int(widthsRaw[i%len(widthsRaw)]%64)
			widths[i] = n
			w.WriteBits(v&mask(n), n)
		}
		r := NewBitReader(w.Bytes())
		for i, v := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != v&mask(widths[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func mask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
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
		s := FormatTS14(epoch)
		if len(s) != 14 {
			t.Fatalf("FormatTS14(%d) = %q, not 14 chars", epoch, s)
		}
		back, ok := ParseTS14(s)
		if !ok || back != epoch {
			t.Errorf("ParseTS14(FormatTS14(%d)) = %d, %v", epoch, back, ok)
		}
	}
}

func TestParseTS14Rejects(t *testing.T) {
	bad := []string{"", "2011", "2011010412345x", "00000000000000", "19691231235959", "20111340123456"}
	for _, s := range bad {
		if _, ok := ParseTS14(s); ok {
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
		p.Observe(tuple.Char(FormatTS14(int64(1262304000 + i*1000))))
	}
	rec := Advise(p)
	if rec.Enc != EncEpoch32 || rec.Bits != 32 {
		t.Errorf("timestamp14 string should advise epoch32, got %+v", rec)
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
		tuple.Char(FormatTS14(int64(1262304000 + rng.Intn(1_000_000)))),
		tuple.String(statuses[rng.Intn(len(statuses))]),
		tuple.String(zeroPad(rng.Intn(100000), 3+rng.Intn(4)) + "-free-text"),
		tuple.TimestampUnix(int64(rng.Intn(2_000_000_000))),
	}
	if rng.Intn(10) == 0 {
		row[1] = tuple.Null(tuple.KindInt64)
	}
	return row
}

func TestPackedCodecRoundTripFromAdvice(t *testing.T) {
	schema := packedTestSchema()
	rng := rand.New(rand.NewSource(31))
	rows := make([]tuple.Row, 400)
	for i := range rows {
		rows[i] = packedTestRow(rng, i)
	}
	i := 0
	report := AnalyzeRows("t", schema, func() (tuple.Row, bool) {
		if i >= len(rows) {
			return nil, false
		}
		r := rows[i]
		i++
		return r, true
	})
	recs := make([]Recommendation, len(report.Columns))
	for j, c := range report.Columns {
		recs[j] = c.Rec
	}
	codec, err := NewPackedCodec(schema, recs)
	if err != nil {
		t.Fatalf("NewPackedCodec: %v", err)
	}
	buf, err := codec.EncodeRows(rows)
	if err != nil {
		t.Fatalf("EncodeRows: %v", err)
	}
	back, err := codec.DecodeRows(buf, len(rows))
	if err != nil {
		t.Fatalf("DecodeRows: %v", err)
	}
	for j := range rows {
		if !rows[j].Equal(back[j]) {
			t.Fatalf("row %d did not round-trip:\n got %v\nwant %v", j, back[j], rows[j])
		}
	}
	// The packed form must actually be denser than the declared codec.
	var declared int
	for _, r := range rows {
		n, err := tuple.EncodedSize(schema, r)
		if err != nil {
			t.Fatal(err)
		}
		declared += n
	}
	if len(buf) >= declared {
		t.Errorf("packed %d bytes not smaller than declared %d", len(buf), declared)
	}
}

func TestPackedCodecRejectsOutOfRange(t *testing.T) {
	schema := tuple.MustSchema(tuple.Field{Name: "x", Kind: tuple.KindInt64})
	p := NewColumnProfile(schema.Field(0))
	for i := 0; i < 10; i++ {
		p.Observe(tuple.Int64(int64(i)))
	}
	rec := Advise(p)
	codec, err := NewPackedCodec(schema, []Recommendation{rec})
	if err != nil {
		t.Fatal(err)
	}
	w := NewBitWriter()
	if err := codec.Encode(tuple.Row{tuple.Int64(1000)}, w); err == nil {
		t.Error("value outside profiled range must be rejected")
	}
	if err := codec.Encode(tuple.Row{tuple.Null(tuple.KindInt64)}, w); err == nil {
		t.Error("NULL in non-nullable column must be rejected")
	}
}

// TestPackedCodecFullWidthInt covers the Bits == 64 degenerate case of
// the EncInt range check: `1 << 64` is 0 for a uint64, so without the
// Bits < 64 guard (grouped exactly as in EncNumericString) every value
// would be rejected as out of range. Extreme int64 values must round-
// trip.
func TestPackedCodecFullWidthInt(t *testing.T) {
	schema := tuple.MustSchema(tuple.Field{Name: "x", Kind: tuple.KindInt64})
	rec := Recommendation{Field: schema.Field(0), Enc: EncInt, Bits: 64, Offset: math.MinInt64}
	codec, err := NewPackedCodec(schema, []Recommendation{rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		w := NewBitWriter()
		if err := codec.Encode(tuple.Row{tuple.Int64(x)}, w); err != nil {
			t.Fatalf("Encode(%d) with Bits=64: %v", x, err)
		}
		row, err := codec.Decode(NewBitReader(w.Bytes()))
		if err != nil {
			t.Fatalf("Decode(%d): %v", x, err)
		}
		if row[0].Int != x {
			t.Errorf("round trip %d -> %d", x, row[0].Int)
		}
	}
	// The in-range rejection must still fire for narrower widths.
	narrow := Recommendation{Field: schema.Field(0), Enc: EncInt, Bits: 4, Offset: 0}
	codec, err = NewPackedCodec(schema, []Recommendation{narrow})
	if err != nil {
		t.Fatal(err)
	}
	if err := codec.Encode(tuple.Row{tuple.Int64(16)}, NewBitWriter()); err == nil {
		t.Error("16 must not fit in 4 bits")
	}
	if err := codec.Encode(tuple.Row{tuple.Int64(-1)}, NewBitWriter()); err == nil {
		t.Error("below-offset value must be rejected")
	}
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
// non-digit remainder, or a constant one, is left alone.
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
	if got := RecordPacking([]*ColumnProfile{p})[0]; got != (tuple.FieldPacking{Bits: 18, Offset: 1812, Prefix: "item-0000000000000", Digits: 6}) {
		t.Fatalf("packing %+v", got)
	}
	if bits := rec.BitsPerValue(p); bits != 18+8*18.0/3 {
		t.Errorf("%v bits per value, want 18 plus the prefix amortized", bits)
	}
	for _, values := range [][]string{{"0123abcd/x", "89ab0123/x"}, {"same", "same"}} {
		q := NewColumnProfile(tuple.Field{Name: "body", Kind: tuple.KindString})
		for _, v := range values {
			q.Observe(tuple.String(v))
		}
		if got := RecordPacking([]*ColumnProfile{q})[0]; got != (tuple.FieldPacking{}) {
			t.Errorf("%q packs as %+v, want verbatim", values, got)
		}
	}
}

// PackedCodec's numeric strings round-trip with and without a stored
// digit count, leading zeros and an empty remainder included, and
// rebuild by the engine's rule (tuple.AppendDigits).
func TestPackedCodecNumericStrings(t *testing.T) {
	schema := tuple.MustSchema(tuple.Field{Name: "fixed", Kind: tuple.KindString}, tuple.Field{Name: "varying", Kind: tuple.KindChar, Size: 12})
	rows := []tuple.Row{
		{tuple.String("user-0042"), tuple.Char("r-0")},
		{tuple.String("user-0000"), tuple.Char("r-000")},
		{tuple.String("user-1999"), tuple.Char("r-")},
		{tuple.String("user-0100"), tuple.Char("r-987654")},
	}
	i := 0
	report := AnalyzeRows("t", schema, func() (tuple.Row, bool) {
		if i == len(rows) {
			return nil, false
		}
		i++
		return rows[i-1], true
	})
	recs := []Recommendation{report.Columns[0].Rec, report.Columns[1].Rec}
	if recs[0].Enc != EncNumericString || recs[0].Prefix != "user-" || recs[0].Digits != 4 ||
		recs[1].Enc != EncNumericString || recs[1].Prefix != "r-" || recs[1].Digits != 0 {
		t.Fatalf("advice %+v", recs)
	}
	codec, err := NewPackedCodec(schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := codec.EncodeRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	back, err := codec.DecodeRows(buf, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	for j := range rows {
		if !rows[j].Equal(back[j]) {
			t.Errorf("row %d: %v, want %v", j, back[j], rows[j])
		}
	}
	for _, bad := range []string{"user-042", "usr-0042", "user-004x"} {
		if err := codec.Encode(tuple.Row{tuple.String(bad), tuple.Char("r-1")}, NewBitWriter()); err == nil {
			t.Errorf("%q outside the profile was accepted", bad)
		}
	}
}
