package tuple_test

import (
	"bytes"
	"math"
	"math/rand"
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
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return tuple.String(string(b))
	default:
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		return tuple.Bytes(b)
	}
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
// values, the kinds' extremes, NaN, ±Inf, −0 and empty strings included
// — encodes to EncodedSize bytes, and every decode entry point returns
// what the declared codec returns for it. A declared record stays
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
			got, gn, err = tuple.DecodeAlias(nil, packed, rec, nil)
			check("DecodeAlias", got, gn, err, nil)
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
