package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Row wire format. Every record starts with a tag byte naming its
// layout: TagDeclared, or TagPacked for the layout the schema adopted
// (layout.go). The declared layout:
//
//	tag           TagDeclared
//	null bitmap   ceil(nFields/8) bytes, bit i set = field i is NULL
//	fixed section every fixed-width field at its schema offset
//	              (NULL fields still occupy their slot, zeroed)
//	var section   for each variable-length field in schema order:
//	              uvarint length + raw bytes (omitted when NULL)
//
// Both layouts put every fixed-width field where it can be read without
// touching the rest of the row; DecodeField exploits this for one
// field, DecodeFields for the set of fields a reader asked for. Both
// store bytes verbatim, and strings too, but for the packed layout's
// string slots: a decoded row can be a view of the record, and a string
// rebuilt from a slot a view of the reader's scratch or a string of the
// layout's dictionary.

// Encode appends the row's encoding, in the schema's adopted layout if
// it has one, to dst and returns the extended slice. The row must match
// the schema exactly.
func Encode(s *Schema, r Row, dst []byte) ([]byte, error) {
	rec, _, err := EncodeEscapes(s, r, dst)
	return rec, err
}

// EncodeEscapes is Encode also reporting the record's escape bitmap: bit
// k is set when the value of field Layout.EscapeFields()[k] fell outside
// the packed layout's domain and was stored at its declared width (a
// string: verbatim). A declared record has none.
func EncodeEscapes(s *Schema, r Row, dst []byte) ([]byte, uint64, error) {
	if err := s.check(r); err != nil {
		return nil, 0, err
	}
	if l := s.Packed(); l != nil {
		rec, esc := l.encode(s, r, dst)
		return rec, esc, nil
	}
	start := len(dst)
	dst = append(dst, make([]byte, s.declaredHead())...)
	rec := dst[start:]
	rec[0] = TagDeclared
	for i, f := range s.fields {
		switch v := r[i]; {
		case v.Null:
			rec[1+i/8] |= 1 << (i % 8)
		case s.fixedOff[i] >= 0:
			putFixed(rec[s.declaredAt(i):], f, v)
		}
	}
	return appendVar(s, r, dst, nil, 0), 0, nil
}

// check reports why r cannot be encoded under s, if it cannot.
func (s *Schema) check(r Row) error {
	if len(r) != s.NumFields() {
		return fmt.Errorf("tuple: row has %d values, schema has %d fields", len(r), s.NumFields())
	}
	for i, f := range s.fields {
		v := r[i]
		if v.Kind != f.Kind {
			return fmt.Errorf("tuple: field %q: value kind %v does not match declared %v", f.Name, v.Kind, f.Kind)
		}
		if v.Null {
			continue
		}
		switch f.Kind {
		case KindInt32:
			if v.Int > math.MaxInt32 || v.Int < math.MinInt32 {
				return fmt.Errorf("tuple: field %q: %d overflows INT", f.Name, v.Int)
			}
		case KindInt16:
			if v.Int > math.MaxInt16 || v.Int < math.MinInt16 {
				return fmt.Errorf("tuple: field %q: %d overflows SMALLINT", f.Name, v.Int)
			}
		case KindInt8:
			if v.Int > math.MaxInt8 || v.Int < math.MinInt8 {
				return fmt.Errorf("tuple: field %q: %d overflows TINYINT", f.Name, v.Int)
			}
		case KindChar:
			if len(v.Str) > f.Size {
				return fmt.Errorf("tuple: field %q: value %d bytes exceeds CHAR(%d)", f.Name, len(v.Str), f.Size)
			}
		case KindString, KindBytes:
			if n := varLen(v); f.Size > 0 && n > f.Size {
				return fmt.Errorf("tuple: field %q: value %d bytes exceeds declared max %d", f.Name, n, f.Size)
			}
		}
	}
	return nil
}

// putFixed writes v, not NULL, at f's declared width at the start of b.
func putFixed(b []byte, f Field, v Value) {
	switch f.Kind {
	case KindInt64, KindTimestamp:
		binary.LittleEndian.PutUint64(b, uint64(v.Int))
	case KindFloat64:
		binary.LittleEndian.PutUint64(b, math.Float64bits(v.Float))
	case KindInt32:
		binary.LittleEndian.PutUint32(b, uint32(v.Int))
	case KindInt16:
		binary.LittleEndian.PutUint16(b, uint16(v.Int))
	case KindInt8:
		b[0] = byte(v.Int)
	case KindBool:
		if v.Int != 0 {
			b[0] = 1
		}
	case KindChar:
		copy(b[:f.Size], v.Str)
	}
}

// fixedValue reads a value of kind k, CHAR excepted, stored at its
// declared width at the start of b.
func fixedValue(k Kind, b []byte) Value {
	v := Value{Kind: k}
	switch k {
	case KindInt64, KindTimestamp:
		v.Int = int64(binary.LittleEndian.Uint64(b))
	case KindFloat64:
		v.Float = math.Float64frombits(binary.LittleEndian.Uint64(b))
	case KindInt32:
		v.Int = int64(int32(binary.LittleEndian.Uint32(b)))
	case KindInt16:
		v.Int = int64(int16(binary.LittleEndian.Uint16(b)))
	case KindInt8:
		v.Int = int64(int8(b[0]))
	case KindBool:
		if b[0] != 0 {
			v.Int = 1
		}
	}
	return v
}

// appendVar appends r's var section in layout l (nil: declared) for the
// escape bitmap esc.
func appendVar(s *Schema, r Row, dst []byte, l *Layout, esc uint64) []byte {
	for _, i := range l.varFields(s) {
		v := r[i]
		if v.Null || l.inSlot(i, esc) {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(varLen(v)))
		if v.Kind == KindBytes {
			dst = append(dst, v.Raw...)
		} else {
			dst = append(dst, v.Str...) // straight from the string: no []byte copy
		}
	}
	return dst
}

// varLen is the byte length of a string, CHAR or bytes value.
func varLen(v Value) int {
	if v.Kind == KindBytes {
		return len(v.Raw)
	}
	return len(v.Str)
}

// varSize is the bytes r's var section takes in layout l (nil:
// declared) for the escape bitmap esc.
func varSize(s *Schema, r Row, l *Layout, esc uint64) int {
	n := 0
	for _, i := range l.varFields(s) {
		if v := r[i]; !v.Null && !l.inSlot(i, esc) {
			l := varLen(v)
			n += uvarintLen(uint64(l)) + l
		}
	}
	return n
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
	return decode(dst, s, data, nil, false, nil)
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
	return decode(dst, s, data, need, false, nil)
}

// DecodeAlias is DecodeFields without the copies: string and bytes
// values alias data, and a string the record's layout rebuilds (a string
// slot, see Layout) is appended to *scratch and aliases that. The row is
// a view — it is valid only until data or those scratch bytes are next
// written, and no value of it may be retained past that — so a writer
// that reads a pre-image into its own scratch, derives keys from it and
// drops it decodes without allocating, and so does a reader that encodes
// what it read before its scratch is reused. A nil scratch gives each
// rebuilt string an allocation of its own.
func DecodeAlias(dst Row, s *Schema, data []byte, need []bool, scratch *[]byte) (Row, int, error) {
	if need != nil && len(need) != s.NumFields() {
		return nil, 0, fmt.Errorf("tuple: field set has %d entries, schema has %d fields", len(need), s.NumFields())
	}
	return decode(dst, s, data, need, true, scratch)
}

// aliasString returns b's bytes as a string without copying them. The
// caller owns the promise a string makes: b is not written while the
// string is reachable.
func aliasString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// charString is a CHAR slot's value: its bytes up to the zero padding,
// a view of them under alias.
func charString(b []byte, alias bool) string {
	if b = trimCharPadding(b); alias {
		return aliasString(b)
	}
	return string(b)
}

// layoutOf returns the layout the record data names: nil for the
// declared one, whose fixed part it also checks is there.
func (s *Schema) layoutOf(data []byte) (*Layout, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("tuple: empty record")
	}
	switch data[0] {
	case TagDeclared:
		if n := s.declaredHead(); len(data) < n {
			return nil, fmt.Errorf("tuple: row truncated: %d bytes, need at least %d", len(data), n)
		}
		return nil, nil
	case TagPacked:
		if l := s.Packed(); l != nil {
			return l, nil
		}
	}
	return nil, fmt.Errorf("tuple: record in layout %d, which schema %s does not have", data[0], s)
}

// null reports whether field i of a record is NULL.
func null(data []byte, i int) bool { return data[1+i/8]&(1<<(i%8)) != 0 }

// decode is the one decode loop. need is DecodeFields' field set; alias
// and scratch are DecodeAlias's.
func decode(dst Row, s *Schema, data []byte, need []bool, alias bool, scratch *[]byte) (Row, int, error) {
	l, err := s.layoutOf(data)
	if err != nil {
		return nil, 0, err
	}
	var r Row
	if cap(dst) >= s.NumFields() {
		r = dst[:s.NumFields()]
	} else {
		r = make(Row, s.NumFields())
	}
	off := s.declaredHead()
	var (
		esc    uint64
		packed []byte
	)
	if l != nil {
		if off, esc, err = l.fixedEnd(data); err != nil {
			return nil, 0, err
		}
		packed = data[l.bitsAt:l.charAt]
	}
	for i, f := range s.fields {
		switch want := need == nil || need[i]; {
		case null(data, i):
			r[i] = Value{Kind: f.Kind, Null: true}
		case s.fixedOff[i] < 0 || l.slotted(i):
			// The var section below fills it, unless a string slot holds it.
			r[i] = Value{Kind: f.Kind}
			if want && l.inSlot(i, esc) {
				if r[i].Str, err = l.slots[i].rebuild(packed, scratch); err != nil {
					return nil, 0, err
				}
			}
		case l != nil:
			l.fill(&r[i], data, packed, i, esc, want, alias)
		case f.Kind == KindChar:
			r[i] = Value{Kind: f.Kind}
			if want {
				at := s.declaredAt(i)
				r[i].Str = charString(data[at:at+f.Size], alias)
			}
		default:
			r[i] = fixedValue(f.Kind, data[s.declaredAt(i):])
		}
	}
	for _, i := range l.varFields(s) {
		if r[i].Null || l.inSlot(i, esc) {
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
		case f.Kind == KindChar:
			r[i].Str = charString(raw, alias)
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
// fixed-width fields and string slots that did not escape this touches
// just the null bitmap, the field's slot and, in the packed layout, the
// escape bitmap; other variable-length fields and escaped CHAR slots
// require walking the var section.
func DecodeField(s *Schema, data []byte, idx int) (Value, error) {
	if idx < 0 || idx >= s.NumFields() {
		return Value{}, fmt.Errorf("tuple: field index %d out of range", idx)
	}
	l, err := s.layoutOf(data)
	if err != nil {
		return Value{}, err
	}
	off := s.declaredHead()
	var esc uint64
	if l != nil {
		if off, esc, err = l.fixedEnd(data); err != nil {
			return Value{}, err
		}
	}
	f := s.Field(idx)
	switch {
	case null(data, idx):
		return Value{Kind: f.Kind, Null: true}, nil
	case l.inSlot(idx, esc):
		str, err := l.slots[idx].rebuild(data[l.bitsAt:l.charAt], nil)
		return Value{Kind: f.Kind, Str: str}, err
	case s.fixedOff[idx] < 0 || l.slotted(idx):
	case l != nil:
		var v Value
		l.fill(&v, data, data[l.bitsAt:l.charAt], idx, esc, true, false)
		return v, nil
	case f.Kind == KindChar:
		at := s.declaredAt(idx)
		return Value{Kind: f.Kind, Str: charString(data[at:at+f.Size], false)}, nil
	default:
		return fixedValue(f.Kind, data[s.declaredAt(idx):]), nil
	}
	// Variable-length: walk preceding non-NULL var fields.
	for _, vi := range l.varFields(s) {
		if vi > idx {
			break
		}
		if null(data, vi) || l.inSlot(vi, esc) {
			continue // NULL or in a string slot: not present in var section
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
			switch f.Kind {
			case KindBytes:
				return Value{Kind: f.Kind, Raw: append([]byte(nil), raw...)}, nil
			case KindChar:
				return Value{Kind: f.Kind, Str: charString(raw, false)}, nil
			}
			return Value{Kind: f.Kind, Str: string(raw)}, nil
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
	if l := s.Packed(); l != nil {
		return l.size(s, r), nil
	}
	return DeclaredSize(s, r)
}

// DeclaredSize returns the bytes the row takes in the declared layout,
// whichever layout the schema adopted: the baseline a packed layout is
// measured against.
func DeclaredSize(s *Schema, r Row) (int, error) {
	if len(r) != s.NumFields() {
		return 0, fmt.Errorf("tuple: row has %d values, schema has %d fields", len(r), s.NumFields())
	}
	return s.declaredHead() + varSize(s, r, nil, 0), nil
}

// nullLen is the bytes of a record's null bitmap.
func (s *Schema) nullLen() int { return (len(s.fields) + 7) / 8 }

// declaredHead is the bytes of a declared record before its var section.
func (s *Schema) declaredHead() int { return 1 + s.nullLen() + s.fixedWidth }

// declaredAt is where fixed-width field i sits in a declared record.
func (s *Schema) declaredAt(i int) int { return 1 + s.nullLen() + s.fixedOff[i] }

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
