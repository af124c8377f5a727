package tuple

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		Field{Name: "id", Kind: KindInt64},
		Field{Name: "small", Kind: KindInt16},
		Field{Name: "tiny", Kind: KindInt8},
		Field{Name: "flag", Kind: KindBool},
		Field{Name: "score", Kind: KindFloat64},
		Field{Name: "code", Kind: KindChar, Size: 4},
		Field{Name: "name", Kind: KindString},
		Field{Name: "blob", Kind: KindBytes},
		Field{Name: "ts", Kind: KindTimestamp},
	)
}

func testRow() Row {
	return Row{
		Int64(42),
		Int16(-7),
		Int8(3),
		Bool(true),
		Float64(3.25),
		Char("ab"),
		String("hello world"),
		Bytes([]byte{0, 1, 2, 0xFF}),
		Timestamp(time.Unix(1234567890, 0)),
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema(t)
	r := testRow()
	enc, err := Encode(s, r, nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, n, err := Decode(s, enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(enc) {
		t.Errorf("Decode consumed %d bytes, encoded %d", n, len(enc))
	}
	if !r.Equal(dec) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", dec, r)
	}
}

// DecodeAlias decodes the same row as DecodeInto without allocating,
// as a view: its strings and bytes are data's own.
func TestDecodeAliasIsAView(t *testing.T) {
	s := testSchema(t)
	r := testRow()
	enc, err := Encode(s, r, nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dst := make(Row, s.NumFields())
	var view Row
	allocs := testing.AllocsPerRun(100, func() {
		if view, _, err = DecodeAlias(dst, s, enc, nil, nil); err != nil {
			t.Fatalf("DecodeAlias: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeAlias allocated %.0f times per row", allocs)
	}
	if !r.Equal(view) {
		t.Fatalf("view mismatch:\n got %v\nwant %v", view, r)
	}
	name := s.Index("name")
	at := strings.Index(string(enc), "hello world")
	enc[at] = 'j'
	if view[name].Str != "jello world" {
		t.Errorf("name = %q after writing data: the view copied it", view[name].Str)
	}
}

func TestEncodeDecodeNulls(t *testing.T) {
	s := testSchema(t)
	r := make(Row, s.NumFields())
	for i := 0; i < s.NumFields(); i++ {
		r[i] = Null(s.Field(i).Kind)
	}
	enc, err := Encode(s, r, nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, _, err := Decode(s, enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	for i, v := range dec {
		if !v.Null {
			t.Errorf("field %d: want NULL, got %v", i, v)
		}
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	s := testSchema(t)
	r := testRow()
	enc, err := Encode(s, r, nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	n, err := EncodedSize(s, r)
	if err != nil {
		t.Fatalf("EncodedSize: %v", err)
	}
	if n != len(enc) {
		t.Errorf("EncodedSize = %d, actual = %d", n, len(enc))
	}
}

func TestDecodeFieldEveryPosition(t *testing.T) {
	s := testSchema(t)
	r := testRow()
	enc, err := Encode(s, r, nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := 0; i < s.NumFields(); i++ {
		v, err := DecodeField(s, enc, i)
		if err != nil {
			t.Fatalf("DecodeField(%d): %v", i, err)
		}
		if !v.Equal(r[i]) {
			t.Errorf("field %d: got %v, want %v", i, v, r[i])
		}
	}
}

func TestDecodeFieldWithNullVarFields(t *testing.T) {
	s := MustSchema(
		Field{Name: "a", Kind: KindString},
		Field{Name: "b", Kind: KindString},
		Field{Name: "c", Kind: KindString},
	)
	r := Row{Null(KindString), String("mid"), String("end")}
	enc, err := Encode(s, r, nil)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for i := range r {
		v, err := DecodeField(s, enc, i)
		if err != nil {
			t.Fatalf("DecodeField(%d): %v", i, err)
		}
		if !v.Equal(r[i]) {
			t.Errorf("field %d: got %v, want %v", i, v, r[i])
		}
	}
}

func TestEncodeKindMismatch(t *testing.T) {
	s := MustSchema(Field{Name: "id", Kind: KindInt64})
	if _, err := Encode(s, Row{String("nope")}, nil); err == nil {
		t.Fatal("want error for kind mismatch")
	}
}

func TestEncodeOverflowChecks(t *testing.T) {
	cases := []struct {
		f Field
		v Value
	}{
		{Field{Name: "x", Kind: KindInt32}, Int64(math.MaxInt32 + 1)},
		{Field{Name: "x", Kind: KindInt16}, Int64(math.MaxInt16 + 1)},
		{Field{Name: "x", Kind: KindInt8}, Int64(200)},
		{Field{Name: "x", Kind: KindChar, Size: 2}, Char("abc")},
	}
	for _, c := range cases {
		s := MustSchema(c.f)
		v := c.v
		v.Kind = c.f.Kind
		if _, err := Encode(s, Row{v}, nil); err == nil {
			t.Errorf("%v with %v: want overflow error", c.f.Kind, c.v)
		}
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := NewSchema(Field{Name: "", Kind: KindInt64}); err == nil {
		t.Error("empty field name should fail")
	}
	if _, err := NewSchema(Field{Name: "a", Kind: KindInt64}, Field{Name: "a", Kind: KindInt32}); err == nil {
		t.Error("duplicate field name should fail")
	}
	if _, err := NewSchema(Field{Name: "a", Kind: KindChar}); err == nil {
		t.Error("CHAR without size should fail")
	}
	if _, err := NewSchema(Field{Name: "a", Kind: KindInvalid}); err == nil {
		t.Error("invalid kind should fail")
	}
}

func TestSchemaProject(t *testing.T) {
	s := testSchema(t)
	p, err := s.Project("name", "id")
	if err != nil {
		t.Fatalf("Project: %v", err)
	}
	if p.NumFields() != 2 || p.Field(0).Name != "name" || p.Field(1).Name != "id" {
		t.Errorf("projection wrong: %s", p)
	}
	if _, err := s.Project("missing"); err == nil {
		t.Error("projecting missing field should fail")
	}
}

func TestSchemaString(t *testing.T) {
	s := MustSchema(
		Field{Name: "id", Kind: KindInt64},
		Field{Name: "code", Kind: KindChar, Size: 3},
	)
	got := s.String()
	if !strings.Contains(got, "id BIGINT") || !strings.Contains(got, "code CHAR(3)") {
		t.Errorf("String() = %q", got)
	}
}

// randomRow generates a row matching the schema from a seeded source,
// exercising NULLs, negatives, and binary-unfriendly bytes.
func randomRow(rng *rand.Rand, s *Schema) Row {
	r := make(Row, s.NumFields())
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		if rng.Intn(8) == 0 {
			r[i] = Null(f.Kind)
			continue
		}
		switch f.Kind {
		case KindInt64:
			r[i] = Int64(rng.Int63() - rng.Int63())
		case KindInt32:
			r[i] = Int32(int32(rng.Int63()))
		case KindInt16:
			r[i] = Int16(int16(rng.Int63()))
		case KindInt8:
			r[i] = Int8(int8(rng.Int63()))
		case KindBool:
			r[i] = Bool(rng.Intn(2) == 1)
		case KindFloat64:
			r[i] = Float64(rng.NormFloat64())
		case KindChar:
			n := rng.Intn(f.Size + 1)
			b := make([]byte, n)
			for j := range b {
				b[j] = byte('a' + rng.Intn(26))
			}
			r[i] = Char(string(b))
		case KindString:
			n := rng.Intn(20)
			b := make([]byte, n)
			for j := range b {
				b[j] = byte(rng.Intn(256))
				if b[j] == 0 && rng.Intn(2) == 0 {
					b[j] = 1
				}
			}
			r[i] = String(string(b))
		case KindBytes:
			n := rng.Intn(20)
			b := make([]byte, n)
			rng.Read(b)
			r[i] = Bytes(b)
		case KindTimestamp:
			r[i] = TimestampUnix(rng.Int63n(4e9))
		}
	}
	return r
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed ^ rng.Int63()))
		r := randomRow(local, s)
		enc, err := Encode(s, r, nil)
		if err != nil {
			t.Logf("Encode: %v", err)
			return false
		}
		dec, n, err := Decode(s, enc)
		if err != nil || n != len(enc) {
			t.Logf("Decode: %v (n=%d len=%d)", err, n, len(enc))
			return false
		}
		return r.Equal(dec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRowsPackedBackToBack(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(11))
	var buf []byte
	var rows []Row
	for i := 0; i < 50; i++ {
		r := randomRow(rng, s)
		rows = append(rows, r)
		var err error
		buf, err = Encode(s, r, buf)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
	}
	off := 0
	for i, want := range rows {
		got, n, err := Decode(s, buf[off:])
		if err != nil {
			t.Fatalf("Decode row %d: %v", i, err)
		}
		if !want.Equal(got) {
			t.Fatalf("row %d mismatch", i)
		}
		off += n
	}
	if off != len(buf) {
		t.Errorf("consumed %d of %d bytes", off, len(buf))
	}
}

// randomSchema draws 1–12 fields of random kinds.
func randomSchema(rng *rand.Rand) *Schema {
	kinds := []Kind{KindInt64, KindInt32, KindInt16, KindInt8, KindBool, KindFloat64, KindChar, KindString, KindBytes, KindTimestamp}
	fields := make([]Field, 1+rng.Intn(12))
	for i := range fields {
		f := Field{Name: "f" + string(rune('a'+i)), Kind: kinds[rng.Intn(len(kinds))]}
		if f.Kind == KindChar {
			f.Size = 1 + rng.Intn(9)
		}
		fields[i] = f
	}
	return MustSchema(fields...)
}

// TestPropertyDecodeFields: over random schemas, rows, NULL patterns and
// field sets, DecodeFields agrees with Decode at every position in the
// set, consumes the same bytes, keeps kind and NULL flag everywhere, and
// — decoding into a reused row — allocates nothing for a set without
// CHAR, string or bytes fields.
func TestPropertyDecodeFields(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for iter := 0; iter < 500; iter++ {
		s := randomSchema(rng)
		row := randomRow(rng, s)
		enc, err := Encode(s, row, nil)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		enc = append(enc, 0xAA, 0xBB) // the next record's bytes: not ours to read
		full, n, err := Decode(s, enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		need := make([]bool, s.NumFields())
		owning := false // does the set hold a field whose value owns memory?
		for i := range need {
			need[i] = rng.Intn(2) == 0
			if k := s.Field(i).Kind; need[i] && (k == KindChar || k == KindString || k == KindBytes) {
				owning = true
			}
		}
		got, gn, err := DecodeFields(nil, s, enc, need)
		if err != nil || gn != n {
			t.Fatalf("%s need %v: consumed %d (%v), Decode consumed %d", s, need, gn, err, n)
		}
		for i := range got {
			if got[i].Kind != full[i].Kind || got[i].Null != full[i].Null {
				t.Fatalf("%s need %v: position %d is %v, Decode says %v", s, need, i, got[i], full[i])
			}
			if need[i] && !got[i].Equal(full[i]) {
				t.Fatalf("%s need %v: position %d = %v, want %v", s, need, i, got[i], full[i])
			}
			if !need[i] && (got[i].Str != "" || got[i].Raw != nil) {
				t.Fatalf("%s need %v: position %d materialised %v", s, need, i, got[i])
			}
		}
		if all, an, err := DecodeFields(nil, s, enc, nil); err != nil || an != n || !all.Equal(full) {
			t.Fatalf("%s: nil set decoded %v (%d bytes, %v), want %v", s, all, an, err, full)
		}
		if !owning {
			if a := testing.AllocsPerRun(10, func() { got, _, _ = DecodeFields(got, s, enc, need) }); a != 0 {
				t.Fatalf("%s need %v: %v allocs into a reused row, want 0", s, need, a)
			}
		}
	}
	s := testSchema(t)
	enc, _ := Encode(s, testRow(), nil)
	if _, _, err := DecodeFields(nil, s, enc, make([]bool, s.NumFields()-1)); err == nil {
		t.Fatal("a field set of the wrong length was accepted")
	}
}
