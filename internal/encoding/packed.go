package encoding

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/tuple"
)

// PackedCodec encodes rows under the advisor's recommendations: every
// value takes exactly its recommended bit width, nulls take one bit,
// and the row has no padding between fields. This is what "removing
// these unused bits increases the data density" (Section 4.1) looks
// like in practice. It is the codec of the waste report, not the
// engine's: it has the dictionary encoding, and a value outside the
// profile is an error. The engine stores what the same advice allows,
// dictionaries aside, with an escape for such values (RecordPacking,
// tuple.Layout), and rebuilds a digit string by the same rule
// (tuple.AppendDigits).
type PackedCodec struct {
	schema *tuple.Schema
	recs   []Recommendation
	dicts  []map[string]uint64 // value -> index, per EncDict column
}

// NewPackedCodec builds a codec from per-column recommendations (one
// per schema field, as produced by Advise/AnalyzeRows).
func NewPackedCodec(schema *tuple.Schema, recs []Recommendation) (*PackedCodec, error) {
	if schema.NumFields() != len(recs) {
		return nil, fmt.Errorf("encoding: %d recommendations for %d fields", len(recs), schema.NumFields())
	}
	c := &PackedCodec{schema: schema, recs: recs, dicts: make([]map[string]uint64, len(recs))}
	for i, r := range recs {
		if r.Enc == EncDict {
			if !sort.StringsAreSorted(r.Dict) {
				return nil, fmt.Errorf("encoding: field %q dictionary not sorted", r.Field.Name)
			}
			m := make(map[string]uint64, len(r.Dict))
			for idx, v := range r.Dict {
				m[v] = uint64(idx)
			}
			c.dicts[i] = m
		}
	}
	return c, nil
}

// Encode packs a row into bytes.
func (c *PackedCodec) Encode(row tuple.Row, w *BitWriter) error {
	if len(row) != len(c.recs) {
		return fmt.Errorf("encoding: row has %d values, codec has %d", len(row), len(c.recs))
	}
	for i, v := range row {
		r := c.recs[i]
		if r.Nullable {
			w.WriteBool(v.Null)
		} else if v.Null {
			return fmt.Errorf("encoding: field %q: NULL in non-nullable column", r.Field.Name)
		}
		if v.Null {
			continue
		}
		switch r.Enc {
		case EncBool:
			w.WriteBool(v.Int != 0)
		case EncInt:
			var x int64
			if v.Kind == tuple.KindFloat64 {
				x = int64(v.Float)
			} else {
				x = v.Int
			}
			if x < r.Offset || (r.Bits < 64 && uint64(x-r.Offset) >= 1<<uint(r.Bits)) {
				return fmt.Errorf("encoding: field %q: value %d outside profiled range", r.Field.Name, x)
			}
			w.WriteBits(uint64(x-r.Offset), r.Bits)
		case EncFloat:
			w.WriteBits(floatBits(v.Float), 64)
		case EncEpoch32:
			var epoch int64
			if v.Kind == tuple.KindTimestamp {
				epoch = v.Int
			} else {
				e, ok := ParseTS14(v.Str)
				if !ok {
					return fmt.Errorf("encoding: field %q: %q is not a timestamp14", r.Field.Name, v.Str)
				}
				epoch = e
			}
			if epoch < 0 || epoch > 0xFFFFFFFF {
				return fmt.Errorf("encoding: field %q: epoch %d outside 32 bits", r.Field.Name, epoch)
			}
			w.WriteBits(uint64(epoch), 32)
		case EncNumericString:
			rest, ok := strings.CutPrefix(v.Str, r.Prefix)
			n, digits := parseDecimal(rest)
			if !ok || !digits || (r.Digits > 0 && len(rest) != r.Digits) ||
				n < r.Offset || (r.Bits < 64 && uint64(n-r.Offset) >= 1<<uint(r.Bits)) {
				return fmt.Errorf("encoding: field %q: %q outside profiled range", r.Field.Name, v.Str)
			}
			if r.Digits == 0 {
				w.WriteBits(uint64(len(rest)), tuple.DigitCountBits)
			}
			w.WriteBits(uint64(n-r.Offset), r.Bits)
		case EncDict:
			idx, ok := c.dicts[i][v.Str]
			if !ok {
				return fmt.Errorf("encoding: field %q: %q not in dictionary", r.Field.Name, v.Str)
			}
			w.WriteBits(idx, r.Bits)
		case EncRaw:
			raw := valueBytes(v)
			if len(raw) > 0xFFFF {
				return fmt.Errorf("encoding: field %q: value too long", r.Field.Name)
			}
			w.WriteBits(uint64(len(raw)), 16)
			w.WriteBytes(raw)
		default:
			return fmt.Errorf("encoding: field %q: unknown encoding", r.Field.Name)
		}
	}
	return nil
}

// Decode unpacks one row from the reader.
func (c *PackedCodec) Decode(rd *BitReader) (tuple.Row, error) {
	row := make(tuple.Row, len(c.recs))
	for i, r := range c.recs {
		f := r.Field
		if r.Nullable {
			null, err := rd.ReadBool()
			if err != nil {
				return nil, err
			}
			if null {
				row[i] = tuple.Null(f.Kind)
				continue
			}
		}
		v := tuple.Value{Kind: f.Kind}
		switch r.Enc {
		case EncBool:
			b, err := rd.ReadBool()
			if err != nil {
				return nil, err
			}
			if b {
				v.Int = 1
			}
		case EncInt:
			bits, err := rd.ReadBits(r.Bits)
			if err != nil {
				return nil, err
			}
			x := int64(bits) + r.Offset
			if f.Kind == tuple.KindFloat64 {
				v.Float = float64(x)
			} else {
				v.Int = x
			}
		case EncFloat:
			bits, err := rd.ReadBits(64)
			if err != nil {
				return nil, err
			}
			v.Float = floatFromBits(bits)
		case EncEpoch32:
			bits, err := rd.ReadBits(32)
			if err != nil {
				return nil, err
			}
			if f.Kind == tuple.KindTimestamp {
				v.Int = int64(bits)
			} else {
				v.Str = FormatTS14(int64(bits))
			}
		case EncNumericString:
			width := uint64(r.Digits)
			if width == 0 {
				var err error
				if width, err = rd.ReadBits(tuple.DigitCountBits); err != nil {
					return nil, err
				}
			}
			bits, err := rd.ReadBits(r.Bits)
			if err != nil {
				return nil, err
			}
			v.Str = string(tuple.AppendDigits([]byte(r.Prefix), bits+uint64(r.Offset), int(width)))
		case EncDict:
			idx, err := rd.ReadBits(r.Bits)
			if err != nil {
				return nil, err
			}
			if idx >= uint64(len(r.Dict)) {
				return nil, fmt.Errorf("encoding: field %q: dictionary index %d out of range", f.Name, idx)
			}
			v.Str = r.Dict[idx]
		case EncRaw:
			n, err := rd.ReadBits(16)
			if err != nil {
				return nil, err
			}
			raw, err := rd.ReadBytes(int(n))
			if err != nil {
				return nil, err
			}
			if f.Kind == tuple.KindBytes {
				v.Raw = raw
			} else {
				v.Str = string(raw)
			}
		default:
			return nil, fmt.Errorf("encoding: field %q: unknown encoding", f.Name)
		}
		row[i] = v
	}
	return row, nil
}

// EncodeRows packs a batch of rows back to back and returns the buffer.
func (c *PackedCodec) EncodeRows(rows []tuple.Row) ([]byte, error) {
	w := NewBitWriter()
	for _, row := range rows {
		if err := c.Encode(row, w); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// DecodeRows unpacks n rows from buf.
func (c *PackedCodec) DecodeRows(buf []byte, n int) ([]tuple.Row, error) {
	rd := NewBitReader(buf)
	rows := make([]tuple.Row, 0, n)
	for i := 0; i < n; i++ {
		row, err := c.Decode(rd)
		if err != nil {
			return nil, fmt.Errorf("encoding: row %d: %w", i, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RecordPacking turns the advisor's recommendation for each profiled
// column into the field packing of a tuple.Layout: booleans in one bit,
// integers and integral doubles as offsets from the profiled minimum in
// the advised bits, timestamps as offsets from theirs in the advised 32,
// and a VARCHAR the advisor reads as a numeric string as a string slot:
// its shared prefix once, in the layout, and the decimal after it as an
// offset in the advised bits, with its digit count fixed when the sample
// fixes it. A reader rebuilds such a string into scratch it owns
// (tuple.DecodeAlias). Every other string stays verbatim — a dictionary
// entry would have to live beside the table, and CHAR keeps its declared
// width — and true doubles keep their 64 bits.
func RecordPacking(profiles []*ColumnProfile) []tuple.FieldPacking {
	out := make([]tuple.FieldPacking, len(profiles))
	for i, p := range profiles {
		switch rec := Advise(p); {
		case rec.Enc == EncBool:
			out[i].Bits = 1
		case rec.Enc == EncInt:
			out[i] = tuple.FieldPacking{Bits: rec.Bits, Offset: rec.Offset}
		case rec.Enc == EncEpoch32 && p.Field.Kind == tuple.KindTimestamp:
			out[i] = tuple.FieldPacking{Bits: rec.Bits, Offset: p.MinInt}
		case rec.Enc == EncFloat:
			out[i].Bits = rec.Bits
		case rec.Enc == EncNumericString && p.Field.Kind == tuple.KindString:
			out[i] = tuple.FieldPacking{Bits: rec.Bits, Offset: rec.Offset, Prefix: rec.Prefix, Digits: rec.Digits}
		}
	}
	return out
}

func valueBytes(v tuple.Value) []byte {
	if v.Kind == tuple.KindBytes {
		return v.Raw
	}
	return []byte(v.Str)
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
