package tuple_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/encoding"
	"repro/internal/tuple"
)

var allKinds = []tuple.Kind{
	tuple.KindInt64, tuple.KindInt32, tuple.KindInt16, tuple.KindInt8, tuple.KindBool,
	tuple.KindFloat64, tuple.KindChar, tuple.KindString, tuple.KindBytes, tuple.KindTimestamp,
}

// fuzzSchema draws 1–12 fields over every kind.
func fuzzSchema(rng *rand.Rand) *tuple.Schema {
	fields := make([]tuple.Field, 1+rng.Intn(12))
	for i := range fields {
		f := tuple.Field{Name: string(rune('a' + i)), Kind: allKinds[rng.Intn(len(allKinds))]}
		if f.Kind == tuple.KindChar {
			f.Size = 1 + rng.Intn(9)
		}
		fields[i] = f
	}
	return tuple.MustSchema(fields...)
}

// fuzzValue draws a value of f's kind. A narrow draw stays in a small
// domain, as a profiled sample does; a wide one reaches the kind's
// extremes, NaN, ±Inf, −0 and empty strings, which must escape.
func fuzzValue(rng *rand.Rand, f tuple.Field, wide bool) tuple.Value {
	if rng.Intn(10) == 0 {
		return tuple.Null(f.Kind)
	}
	small := int64(rng.Intn(200)) - 20
	pick := func(extremes ...int64) int64 {
		if !wide || rng.Intn(3) == 0 {
			return small
		}
		if rng.Intn(2) == 0 {
			return extremes[rng.Intn(len(extremes))]
		}
		return rng.Int63() - rng.Int63()
	}
	switch f.Kind {
	case tuple.KindInt64, tuple.KindTimestamp:
		return tuple.Value{Kind: f.Kind, Int: pick(math.MinInt64, math.MaxInt64, -1, 0)}
	case tuple.KindInt32:
		return tuple.Int32(int32(pick(math.MinInt32, math.MaxInt32)))
	case tuple.KindInt16:
		return tuple.Int16(int16(pick(math.MinInt16, math.MaxInt16)))
	case tuple.KindInt8:
		return tuple.Int8(int8(pick(math.MinInt8, math.MaxInt8)))
	case tuple.KindBool:
		return tuple.Bool(rng.Intn(2) == 0)
	case tuple.KindFloat64:
		if wide && rng.Intn(2) == 0 {
			odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.5, 1e300, -9.3e18, 9.2e18}
			return tuple.Float64(odd[rng.Intn(len(odd))])
		}
		return tuple.Float64(float64(small))
	case tuple.KindChar:
		b := make([]byte, rng.Intn(f.Size+1))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return tuple.Char(string(b))
	case tuple.KindString:
		return tuple.String(fuzzString(rng, f, wide))
	default:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return tuple.Bytes(b)
	}
}

// fuzzString draws a string of f. Most fields hold what a string slot
// stores — a prefix the field's values share (none, ASCII, or with
// non-ASCII bytes) and a decimal of a fixed or a varying digit count;
// the rest hold random bytes. A wide draw also reaches what must escape
// a slot: a prefix cut short, the empty string, leading zeros, 18 and
// 19 digits, a non-digit after the prefix, a decimal past the sample's.
func fuzzString(rng *rand.Rand, f tuple.Field, wide bool) string {
	c := int(f.Name[0])
	prefix, width := []string{"", "item-000", "é/"}[c%3], c%4 // width 0: varying
	if c%5 == 4 {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	digits := func(n uint64, w int) string { return string(tuple.AppendDigits(nil, n, w)) }
	if wide && rng.Intn(2) == 0 {
		edges := []string{
			prefix[:len(prefix)/2], "", prefix + "0", prefix + "000",
			prefix + digits(uint64(rng.Int63n(1e18)), 18), prefix + digits(uint64(rng.Int63()), 19),
			prefix + "12a", prefix + "\xff9", prefix + digits(uint64(rng.Intn(1e6)), width),
			prefix + digits(uint64(rng.Intn(10)), width+1),
		}
		return edges[rng.Intn(len(edges))]
	}
	if width == 0 {
		return prefix + digits(uint64(rng.Intn(200)), rng.Intn(4))
	}
	return prefix + digits(uint64(rng.Intn(min(200, int(math.Pow10(width))))), width)
}

func fuzzRow(rng *rand.Rand, s *tuple.Schema, wide bool) tuple.Row {
	r := make(tuple.Row, s.NumFields())
	for i := range r {
		r[i] = fuzzValue(rng, s.Field(i), wide)
	}
	return r
}

// sameValue is Value.Equal with doubles compared by bits.
func sameValue(a, b tuple.Value) bool {
	if a.Kind != b.Kind || a.Null != b.Null {
		return false
	}
	switch {
	case a.Null:
		return true
	case a.Kind == tuple.KindFloat64:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	case a.Kind == tuple.KindBytes:
		return bytes.Equal(a.Raw, b.Raw)
	}
	return a.Int == b.Int && a.Str == b.Str
}

// FuzzRecordLayout: over a random schema and a layout the advisor picks
// from a profile of a random sample, every row — NULLs, out-of-domain
// values, the kinds' extremes, NaN, ±Inf, −0, and strings in and out of
// a string slot's domain included — encodes to EncodedSize bytes, and
// every decode entry point returns what the declared codec returns for
// it, DecodeAlias with and without scratch. A declared record stays
// readable by the schema that adopted the layout.
func FuzzRecordLayout(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 2011} {
		f.Add(seed, uint8(16), uint8(8))
	}
	f.Fuzz(func(t *testing.T, seed int64, nSample, nRows uint8) {
		rng := rand.New(rand.NewSource(seed))
		declared := fuzzSchema(rng)
		packed, err := tuple.NewSchema(declared.Fields()...)
		if err != nil {
			t.Fatal(err)
		}
		sample := make([]tuple.Row, 1+int(nSample)%64)
		for i := range sample {
			sample[i] = fuzzRow(rng, declared, false)
		}
		next := 0
		profiles := encoding.ProfileRows(declared, func() (tuple.Row, bool) {
			if next == len(sample) {
				return nil, false
			}
			next++
			return sample[next-1], true
		})
		l, err := tuple.NewLayout(packed, encoding.RecordPacking(profiles))
		if err != nil {
			t.Fatalf("NewLayout: %v", err)
		}
		if err := packed.Adopt(l); err != nil {
			t.Fatalf("Adopt: %v", err)
		}
		for n := 0; n < 1+int(nRows)%32; n++ {
			row := fuzzRow(rng, declared, n%2 == 1)
			want, err := tuple.Encode(declared, row, nil)
			if err != nil {
				t.Fatalf("declared Encode: %v", err)
			}
			wantRow, _, err := tuple.Decode(declared, want)
			if err != nil {
				t.Fatalf("declared Decode: %v", err)
			}
			rec, err := tuple.Encode(packed, row, []byte{0xEE}) // after another record's byte
			if err != nil {
				t.Fatalf("packed Encode: %v", err)
			}
			rec = append(rec[1:], 0xAA, 0xBB) // the next record's bytes: not ours to read
			size, err := tuple.EncodedSize(packed, row)
			if err != nil || size != len(rec)-2 {
				t.Fatalf("%s: EncodedSize %d (%v), Encode wrote %d", packed, size, err, len(rec)-2)
			}
			if rec[0] != tuple.TagPacked {
				t.Fatalf("packed record tagged %d", rec[0])
			}
			check := func(entry string, got tuple.Row, n int, err error, need []bool) {
				t.Helper()
				if err != nil || n != size {
					t.Fatalf("%s %s: consumed %d of %d (%v)", packed, entry, n, size, err)
				}
				for i := range got {
					if (need == nil || need[i]) && !sameValue(got[i], wantRow[i]) {
						t.Fatalf("%s %s: field %d = %v, the declared codec says %v (row %v)", packed, entry, i, got[i], wantRow[i], row)
					}
				}
			}
			got, gn, err := tuple.Decode(packed, rec)
			check("Decode", got, gn, err, nil)
			got, gn, err = tuple.DecodeInto(got, packed, rec)
			check("DecodeInto", got, gn, err, nil)
			need := make([]bool, packed.NumFields())
			for i := range need {
				need[i] = rng.Intn(2) == 0
			}
			got, gn, err = tuple.DecodeFields(nil, packed, rec, need)
			check("DecodeFields", got, gn, err, need)
			got, gn, err = tuple.DecodeAlias(nil, packed, rec, nil, nil)
			check("DecodeAlias", got, gn, err, nil)
			scratch := []byte("kept")
			got, gn, err = tuple.DecodeAlias(nil, packed, rec, need, &scratch)
			check("DecodeAlias with scratch", got, gn, err, need)
			if string(scratch[:4]) != "kept" {
				t.Fatalf("%s: DecodeAlias wrote over the scratch it was handed: %q", packed, scratch)
			}
			for i := range wantRow {
				v, err := tuple.DecodeField(packed, rec, i)
				if err != nil || !sameValue(v, wantRow[i]) {
					t.Fatalf("%s DecodeField(%d) = %v (%v), the declared codec says %v", packed, i, v, err, wantRow[i])
				}
			}
			got, gn, err = tuple.Decode(packed, want)
			if err != nil || gn != len(want) {
				t.Fatalf("%s: declared record read back in %d of %d bytes (%v)", packed, gn, len(want), err)
			}
			for i := range got {
				if !sameValue(got[i], wantRow[i]) {
					t.Fatalf("%s: declared record's field %d read back as %v, want %v", packed, i, got[i], wantRow[i])
				}
			}
		}
	})
}

// A record in a layout the schema has not adopted is an error, not a
// misread.
func TestPackedRecordNeedsItsLayout(t *testing.T) {
	s := tuple.MustSchema(tuple.Field{Name: "x", Kind: tuple.KindInt64})
	l, err := tuple.NewLayout(s, []tuple.FieldPacking{{Bits: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt(l); err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt(l); err == nil {
		t.Error("a schema adopted a second layout")
	}
	rec, err := tuple.Encode(s, tuple.Row{tuple.Int64(3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain := tuple.MustSchema(s.Fields()...)
	if _, _, err := tuple.Decode(plain, rec); err == nil {
		t.Error("a schema without the layout decoded a packed record")
	}
	// 1 tag, 1 null bitmap, 1 escape bitmap, 1 byte holding 4 bits.
	if len(rec) != 4 {
		t.Errorf("packed record of one 4-bit field is %d bytes, want 4", len(rec))
	}
	// 16 does not fit 4 bits: it escapes to the declared 8 bytes.
	if rec, _ = tuple.Encode(s, tuple.Row{tuple.Int64(16)}, nil); len(rec) != 12 {
		t.Errorf("escaped record is %d bytes, want 12", len(rec))
	}
}

// TestStringSlotEdges: a string slot holds exactly the values of its
// domain — its prefix, then a decimal of its digit count that its bits
// hold — and everything else escapes to the var section verbatim. Each
// value round-trips through every decode entry point.
func TestStringSlotEdges(t *testing.T) {
	s := tuple.MustSchema(
		tuple.Field{Name: "fixed", Kind: tuple.KindString},
		tuple.Field{Name: "varying", Kind: tuple.KindString},
		tuple.Field{Name: "plain", Kind: tuple.KindString},
	)
	l, err := tuple.NewLayout(s, []tuple.FieldPacking{
		{Bits: 8, Offset: 100, Prefix: "item-000", Digits: 3}, // "item-000" + 100..355
		{Bits: 10}, // any digit count, 0..1023
		{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt(l); err != nil {
		t.Fatal(err)
	}
	if !l.HasStringSlots() || fmt.Sprint(l.EscapeFields()) != "[0 1]" {
		t.Fatalf("slots %v, escape fields %v", l.HasStringSlots(), l.EscapeFields())
	}
	cases := []struct {
		v      tuple.Value
		field  int
		escape bool
	}{
		{tuple.String("item-000100"), 0, false},
		{tuple.String("item-000355"), 0, false},
		{tuple.String("item-000099"), 0, true},  // below the offset
		{tuple.String("item-000356"), 0, true},  // past the bits
		{tuple.String("item-00010"), 0, true},   // another digit count
		{tuple.String("item-0001000"), 0, true}, // another digit count
		{tuple.String("item-00"), 0, true},      // the prefix longer than the value
		{tuple.String(""), 0, true},
		{tuple.String("item-00012x"), 0, true},
		{tuple.String("item-000\xff99"), 0, true},
		{tuple.String("ítem-000200"), 0, true},
		{tuple.Null(tuple.KindString), 0, false},
		{tuple.String(""), 1, false}, // no digits: 0 of them
		{tuple.String("0"), 1, false},
		{tuple.String("000"), 1, false},
		{tuple.String("0001023"), 1, false},
		{tuple.String("1024"), 1, true},
		{tuple.String("000000000000000042"), 1, false}, // 18 digits
		{tuple.String("0000000000000000042"), 1, true}, // 19
		{tuple.String("-1"), 1, true},
		{tuple.String("١٢"), 1, true}, // digits, not 0–9
	}
	for _, c := range cases {
		row := tuple.Row{tuple.String("item-000200"), tuple.String("7"), tuple.String("0")}
		row[c.field] = c.v
		rec, esc, err := tuple.EncodeEscapes(s, row, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := esc&(1<<c.field) != 0; got != c.escape {
			t.Errorf("%q in field %d: escaped %v, want %v", c.v.Str, c.field, got, c.escape)
		}
		if n, err := tuple.EncodedSize(s, row); err != nil || n != len(rec) {
			t.Errorf("%q: EncodedSize %d (%v), Encode wrote %d", c.v.Str, n, err, len(rec))
		}
		// An escaped value is in the record verbatim, a slotted one is not
		// (checked where a value is too long to occur by chance).
		if len(c.v.Str) >= 3 && strings.Contains(string(rec), c.v.Str) != c.escape {
			t.Errorf("%q: stored verbatim %v, escaped %v", c.v.Str, !c.escape, c.escape)
		}
		scratch := make([]byte, 0, 4) // too small: the rebuild grows it
		entries := map[string]func() (tuple.Row, error){
			"Decode": func() (tuple.Row, error) { r, _, err := tuple.Decode(s, rec); return r, err },
			"DecodeFields": func() (tuple.Row, error) {
				r, _, err := tuple.DecodeFields(nil, s, rec, []bool{true, true, false})
				return r, err
			},
			"DecodeAlias": func() (tuple.Row, error) {
				r, _, err := tuple.DecodeAlias(nil, s, rec, nil, &scratch)
				return r, err
			},
		}
		for name, decode := range entries {
			got, err := decode()
			if err != nil || !got[c.field].Equal(c.v) || got[c.field].Null != c.v.Null {
				t.Errorf("%s of %q in field %d: %v (%v)", name, c.v.Str, c.field, got, err)
			}
		}
		if v, err := tuple.DecodeField(s, rec, c.field); err != nil || !v.Equal(c.v) || v.Null != c.v.Null {
			t.Errorf("DecodeField of %q in field %d: %v (%v)", c.v.Str, c.field, v, err)
		}
		if v, err := tuple.DecodeField(s, rec, 2); err != nil || v.Str != "0" {
			t.Errorf("DecodeField of the verbatim field after %q: %v (%v)", c.v.Str, v, err)
		}
	}
}

// A rebuilt string read as a view is a view of the scratch: the next
// decode into the same scratch overwrites it.
func TestStringSlotRebuildsIntoScratch(t *testing.T) {
	s, rec := slotRecord(t, "item-001812")
	if len(rec) != 6 { // tag, null bitmap, escape bitmap, 20 bits
		t.Fatalf("record is %d bytes, want 6", len(rec))
	}
	scratch := make([]byte, 0, 64)
	view, _, err := tuple.DecodeAlias(nil, s, rec, nil, &scratch)
	if err != nil || view[0].Str != "item-001812" {
		t.Fatalf("view reads %v (%v)", view, err)
	}
	_, other := slotRecord(t, "item-199900")
	reused := scratch[:0]
	if _, _, err := tuple.DecodeAlias(nil, s, other, nil, &reused); err != nil {
		t.Fatal(err)
	}
	if view[0].Str != "item-199900" {
		t.Fatalf("the first view reads %q after the scratch was reused: it is not a view of it", view[0].Str)
	}
}

// slotRecord encodes name under a schema of one VARCHAR stored as the
// string slot "item-" + six digits in 20 bits.
func slotRecord(t *testing.T, name string) (*tuple.Schema, []byte) {
	t.Helper()
	s := tuple.MustSchema(tuple.Field{Name: "name", Kind: tuple.KindString})
	l, err := tuple.NewLayout(s, []tuple.FieldPacking{{Bits: 20, Prefix: "item-", Digits: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Adopt(l); err != nil {
		t.Fatal(err)
	}
	rec, err := tuple.Encode(s, tuple.Row{tuple.String(name)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

func TestAppendDigits(t *testing.T) {
	for _, c := range []struct {
		n     uint64
		width int
		want  string
	}{
		{0, 0, ""}, {0, 1, "0"}, {0, 3, "000"}, {7, 0, "7"}, {1812, 6, "001812"},
		{199900, 6, "199900"}, {123, 2, "123"}, {999999999999999999, 18, "999999999999999999"},
		{math.MaxUint64, 22, "0018446744073709551615"},
	} {
		if got := string(tuple.AppendDigits([]byte("x"), c.n, c.width)); got != "x"+c.want {
			t.Errorf("AppendDigits(%d, %d) = %q, want %q", c.n, c.width, got, "x"+c.want)
		}
	}
}
