package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Row wire format ("declared" physical layout):
//
//	null bitmap   ceil(nFields/8) bytes, bit i set = field i is NULL
//	fixed section every fixed-width field at its schema offset
//	              (NULL fields still occupy their slot, zeroed)
//	var section   for each variable-length field in schema order:
//	              uvarint length + raw bytes (omitted when NULL)
//
// The fixed-at-offset layout lets point queries decode a single field
// without touching the rest of the row; DecodeField exploits this for
// one field, DecodeFields for the set of fields a reader asked for.

// Encode appends the row's encoding to dst and returns the extended
// slice. The row must match the schema exactly.
func Encode(s *Schema, r Row, dst []byte) ([]byte, error) {
	if len(r) != s.NumFields() {
		return nil, fmt.Errorf("tuple: row has %d values, schema has %d fields", len(r), s.NumFields())
	}
	bitmapLen := (s.NumFields() + 7) / 8
	start := len(dst)
	dst = append(dst, make([]byte, bitmapLen+s.FixedWidth())...)
	bitmap := dst[start : start+bitmapLen]
	off := start + bitmapLen
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		v := r[i]
		if v.Kind != f.Kind {
			return nil, fmt.Errorf("tuple: field %q: value kind %v does not match declared %v", f.Name, v.Kind, f.Kind)
		}
		if v.Null {
			bitmap[i/8] |= 1 << (i % 8)
		}
		switch f.Kind {
		case KindInt64, KindTimestamp:
			binary.LittleEndian.PutUint64(dst[off:], uint64(v.Int))
			off += 8
		case KindFloat64:
			binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(v.Float))
			off += 8
		case KindInt32:
			if !v.Null && (v.Int > math.MaxInt32 || v.Int < math.MinInt32) {
				return nil, fmt.Errorf("tuple: field %q: %d overflows INT", f.Name, v.Int)
			}
			binary.LittleEndian.PutUint32(dst[off:], uint32(int32(v.Int)))
			off += 4
		case KindInt16:
			if !v.Null && (v.Int > math.MaxInt16 || v.Int < math.MinInt16) {
				return nil, fmt.Errorf("tuple: field %q: %d overflows SMALLINT", f.Name, v.Int)
			}
			binary.LittleEndian.PutUint16(dst[off:], uint16(int16(v.Int)))
			off += 2
		case KindInt8:
			if !v.Null && (v.Int > math.MaxInt8 || v.Int < math.MinInt8) {
				return nil, fmt.Errorf("tuple: field %q: %d overflows TINYINT", f.Name, v.Int)
			}
			dst[off] = byte(int8(v.Int))
			off++
		case KindBool:
			if v.Int != 0 {
				dst[off] = 1
			}
			off++
		case KindChar:
			if len(v.Str) > f.Size {
				return nil, fmt.Errorf("tuple: field %q: value %d bytes exceeds CHAR(%d)", f.Name, len(v.Str), f.Size)
			}
			copy(dst[off:off+f.Size], v.Str)
			off += f.Size
		case KindString, KindBytes:
			// handled in the var section below
		}
	}
	for _, i := range s.varIdx {
		f := s.Field(i)
		v := r[i]
		if v.Null {
			continue
		}
		n := len(v.Raw)
		if f.Kind == KindString {
			n = len(v.Str)
		}
		if f.Size > 0 && n > f.Size {
			return nil, fmt.Errorf("tuple: field %q: value %d bytes exceeds declared max %d", f.Name, n, f.Size)
		}
		dst = binary.AppendUvarint(dst, uint64(n))
		if f.Kind == KindString {
			dst = append(dst, v.Str...) // straight from the string: no []byte copy
		} else {
			dst = append(dst, v.Raw...)
		}
	}
	return dst, nil
}

// Decode parses an encoded row. It returns the row and the number of
// bytes consumed, so callers can decode rows packed back to back.
func Decode(s *Schema, data []byte) (Row, int, error) {
	return DecodeInto(nil, s, data)
}

// DecodeInto is Decode writing into dst when its capacity suffices, so
// scans that decode one row per record reuse a single Row's backing
// array instead of allocating per row. The returned row may still be a
// fresh slice when dst was too small; string and bytes values are
// copied out of data either way (the result never aliases the page).
func DecodeInto(dst Row, s *Schema, data []byte) (Row, int, error) {
	return decode(dst, s, data, nil, false)
}

// DecodeFields is DecodeInto materialising only the fields a reader
// asked for: need[i] marks schema position i, nil marks them all. A
// CHAR, string or bytes field outside the set is stepped over — its
// length is read, its bytes are neither copied nor allocated — and its
// position holds an empty value of the field's kind, NULL flag intact;
// the other fixed-width fields cost nothing extra and are filled either
// way. The byte count is DecodeInto's.
func DecodeFields(dst Row, s *Schema, data []byte, need []bool) (Row, int, error) {
	if need != nil && len(need) != s.NumFields() {
		return nil, 0, fmt.Errorf("tuple: field set has %d entries, schema has %d fields", len(need), s.NumFields())
	}
	return decode(dst, s, data, need, false)
}

// DecodeAlias is DecodeFields without the copies: string and bytes
// values alias data. The row is a view — it is valid only until data
// is next written, and no value of it may be retained past that — so a
// writer that reads a pre-image into its own scratch, derives keys from
// it and drops it decodes without allocating, and so does a reader that
// encodes what it read before its scratch is reused.
func DecodeAlias(dst Row, s *Schema, data []byte, need []bool) (Row, int, error) {
	if need != nil && len(need) != s.NumFields() {
		return nil, 0, fmt.Errorf("tuple: field set has %d entries, schema has %d fields", len(need), s.NumFields())
	}
	return decode(dst, s, data, need, true)
}

// aliasString returns b's bytes as a string without copying them. The
// caller owns the promise a string makes: b is not written while the
// string is reachable.
func aliasString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// decode is the one decode loop. need is DecodeFields' field set.
func decode(dst Row, s *Schema, data []byte, need []bool, alias bool) (Row, int, error) {
	bitmapLen := (s.NumFields() + 7) / 8
	if len(data) < bitmapLen+s.FixedWidth() {
		return nil, 0, fmt.Errorf("tuple: row truncated: %d bytes, need at least %d", len(data), bitmapLen+s.FixedWidth())
	}
	bitmap := data[:bitmapLen]
	off := bitmapLen
	var r Row
	if cap(dst) >= s.NumFields() {
		r = dst[:s.NumFields()]
	} else {
		r = make(Row, s.NumFields())
	}
	for i := 0; i < s.NumFields(); i++ {
		f := s.Field(i)
		null := bitmap[i/8]&(1<<(i%8)) != 0
		v := Value{Kind: f.Kind, Null: null}
		switch f.Kind {
		case KindInt64, KindTimestamp:
			v.Int = int64(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		case KindFloat64:
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		case KindInt32:
			v.Int = int64(int32(binary.LittleEndian.Uint32(data[off:])))
			off += 4
		case KindInt16:
			v.Int = int64(int16(binary.LittleEndian.Uint16(data[off:])))
			off += 2
		case KindInt8:
			v.Int = int64(int8(data[off]))
			off++
		case KindBool:
			if data[off] != 0 {
				v.Int = 1
			}
			off++
		case KindChar:
			if need == nil || need[i] {
				if raw := trimCharPadding(data[off : off+f.Size]); alias {
					v.Str = aliasString(raw)
				} else {
					v.Str = string(raw)
				}
			}
			off += f.Size
		}
		if null {
			// Zero out any payload decoded from the zeroed slot.
			r[i] = Value{Kind: f.Kind, Null: true}
			continue
		}
		r[i] = v
	}
	for _, i := range s.varIdx {
		if r[i].Null {
			continue
		}
		f := s.Field(i)
		n, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("tuple: field %q: bad varint length", f.Name)
		}
		off += sz
		if uint64(len(data)-off) < n {
			return nil, 0, fmt.Errorf("tuple: field %q: truncated var data", f.Name)
		}
		raw := data[off : off+int(n)]
		off += int(n)
		switch {
		case need != nil && !need[i]:
		case f.Kind == KindString && alias:
			r[i].Str = aliasString(raw)
		case f.Kind == KindString:
			r[i].Str = string(raw)
		case alias:
			r[i].Raw = raw
		default:
			r[i].Raw = append([]byte(nil), raw...)
		}
	}
	return r, off, nil
}

// DecodeField decodes only the idx-th field of an encoded row. For
// fixed-width fields this touches just the null bitmap and the field's
// slot; variable-length fields require walking the var section.
func DecodeField(s *Schema, data []byte, idx int) (Value, error) {
	if idx < 0 || idx >= s.NumFields() {
		return Value{}, fmt.Errorf("tuple: field index %d out of range", idx)
	}
	bitmapLen := (s.NumFields() + 7) / 8
	if len(data) < bitmapLen+s.FixedWidth() {
		return Value{}, fmt.Errorf("tuple: row truncated")
	}
	f := s.Field(idx)
	if data[idx/8]&(1<<(idx%8)) != 0 {
		return Value{Kind: f.Kind, Null: true}, nil
	}
	if w := f.width(); w >= 0 {
		off := bitmapLen
		for i := 0; i < idx; i++ {
			if fw := s.Field(i).width(); fw >= 0 {
				off += fw
			}
		}
		v := Value{Kind: f.Kind}
		switch f.Kind {
		case KindInt64, KindTimestamp:
			v.Int = int64(binary.LittleEndian.Uint64(data[off:]))
		case KindFloat64:
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		case KindInt32:
			v.Int = int64(int32(binary.LittleEndian.Uint32(data[off:])))
		case KindInt16:
			v.Int = int64(int16(binary.LittleEndian.Uint16(data[off:])))
		case KindInt8:
			v.Int = int64(int8(data[off]))
		case KindBool:
			if data[off] != 0 {
				v.Int = 1
			}
		case KindChar:
			v.Str = string(trimCharPadding(data[off : off+f.Size]))
		}
		return v, nil
	}
	// Variable-length: walk preceding non-NULL var fields.
	off := bitmapLen + s.FixedWidth()
	for _, vi := range s.varIdx {
		if vi > idx {
			break
		}
		if data[vi/8]&(1<<(vi%8)) != 0 {
			continue // NULL: not present in var section
		}
		n, sz := binary.Uvarint(data[off:])
		if sz <= 0 {
			return Value{}, fmt.Errorf("tuple: bad varint length in var section")
		}
		off += sz
		if uint64(len(data)-off) < n {
			return Value{}, fmt.Errorf("tuple: truncated var data")
		}
		if vi == idx {
			raw := data[off : off+int(n)]
			if f.Kind == KindString {
				return Value{Kind: f.Kind, Str: string(raw)}, nil
			}
			return Value{Kind: f.Kind, Raw: append([]byte(nil), raw...)}, nil
		}
		off += int(n)
	}
	return Value{}, fmt.Errorf("tuple: var field %d not found", idx)
}

// EncodedSize returns the number of bytes Encode will produce for the
// row without allocating.
func EncodedSize(s *Schema, r Row) (int, error) {
	if len(r) != s.NumFields() {
		return 0, fmt.Errorf("tuple: row has %d values, schema has %d fields", len(r), s.NumFields())
	}
	n := (s.NumFields()+7)/8 + s.FixedWidth()
	for _, i := range s.varIdx {
		v := r[i]
		if v.Null {
			continue
		}
		var l int
		if s.Field(i).Kind == KindString {
			l = len(v.Str)
		} else {
			l = len(v.Raw)
		}
		n += uvarintLen(uint64(l)) + l
	}
	return n, nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// trimCharPadding strips trailing zero padding from a CHAR slot.
func trimCharPadding(b []byte) []byte {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return b[:end]
}
