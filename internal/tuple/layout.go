package tuple

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Record tags: the first byte of every encoded row names the layout it
// was written in.
const (
	// TagDeclared is the declared layout: every fixed-width field at its
	// declared width (codec.go).
	TagDeclared byte = 0
	// TagPacked is the packed layout the schema adopted (Schema.Adopt).
	TagPacked byte = 1
)

// FieldPacking is how a packed layout stores one field. Bits is the
// field's width in the packed section and Offset is subtracted from a
// value before it is stored there. Only integers, timestamps and
// integral doubles narrower than their declared width are stored as
// offsets: any other fixed-width field keeps its declared width (a
// boolean one bit), and CHAR and bytes fields are stored verbatim.
//
// A string (VARCHAR) field with a non-zero packing is a string slot:
// every value in its domain is Prefix followed by a decimal of at most
// 18 digits, stored as an offset in Bits bits. Digits is that decimal's
// digit count when it is fixed, so leading zeros come back by re-padding
// and the count takes no bits; 0 means each record stores its count in 5
// bits. A string field with the zero FieldPacking is stored verbatim.
type FieldPacking struct {
	Bits   int    `json:"bits,omitempty"`
	Offset int64  `json:"offset,omitempty"`
	Prefix string `json:"prefix,omitempty"`
	Digits int    `json:"digits,omitempty"`
}

const (
	// maxEscapes bounds the fields of one layout that are stored as
	// offsets or string slots, so a record's escape bitmap is one word.
	// Fields past it keep their declared width, or stay verbatim.
	maxEscapes = 64
	// MaxDigits is the longest decimal a string slot stores: every
	// 18-digit number fits an int64.
	MaxDigits = 18
	// DigitCountBits is the width of a string slot's stored digit count.
	DigitCountBits = 5
)

// Layout is a schema's packed record layout:
//
//	tag            TagPacked
//	null bitmap    as in the declared layout
//	escape bitmap  ceil((offset fields + string slots)/8) bytes: bit k
//	               set = the k-th of them holds a value outside its
//	               domain
//	packed section each offset field as value−Offset in Bits bits, each
//	               string slot as its digit count (when not fixed) and
//	               its decimal−Offset, each other fixed-width field but
//	               CHAR at its declared width (a boolean in one bit),
//	               LSB first, at fixed bit offsets
//	CHAR section   each CHAR field verbatim at its declared size
//	escape area    each escaped offset field at its declared width, in
//	               field order
//	var section    as in the declared layout, less the string slots
//	               that did not escape
//
// A value the domain cannot hold escapes, to its declared width or, a
// string, verbatim into the var section; it is never an error. Every
// fixed-width field and every string slot that did not escape is found
// in O(1): the escape area's offsets are popcounts of the escape bitmap.
type Layout struct {
	slots   []slot
	escaped []int // the field of each escape bit

	nullLen int // null bitmap bytes
	escLen  int // escape bitmap bytes
	bitsAt  int // record offset of the packed section
	charAt  int // record offset of the CHAR section (end of the packed section)
	escAt   int // record offset of the escape area

	// escW[c] marks the escape bits of the fields declared 1<<c bytes
	// wide.
	escW [4]uint64
}

// slot is where a packed layout keeps one field.
type slot struct {
	kind   Kind
	size   int   // declared bytes
	at     int   // bit offset in the packed section; CHAR: record offset
	bits   int   // width in the packed section (a string slot's decimal)
	esc    int   // escape bit, -1 for a field stored at its declared width or verbatim
	offset int64 // subtracted before storing

	// A string slot's prefix, its fixed digit count, and the width of the
	// count it stores instead when that is 0.
	prefix  string
	digits  int
	lenBits int
}

// NewLayout builds the packed layout for s from one FieldPacking per
// field. Widths at or past a field's declared width mean the declared
// width, so every spec yields a layout that can hold every row.
func NewLayout(s *Schema, spec []FieldPacking) (*Layout, error) {
	if len(spec) != s.NumFields() {
		return nil, fmt.Errorf("tuple: layout has %d fields, schema has %d", len(spec), s.NumFields())
	}
	l := &Layout{slots: make([]slot, len(spec)), nullLen: s.nullLen()}
	nbits, nesc, nchar := 0, 0, 0
	for i, f := range s.fields {
		p, sl := spec[i], &l.slots[i]
		sl.kind, sl.size, sl.esc = f.Kind, f.width(), -1
		if (p.Prefix != "" || p.Digits != 0) && f.Kind != KindString {
			return nil, fmt.Errorf("tuple: field %q: a %v field has no string slot", f.Name, f.Kind)
		}
		switch f.Kind {
		case KindString:
			if p == (FieldPacking{}) || nesc == maxEscapes {
				continue
			}
			if p.Bits < 0 || p.Bits > 64 || p.Digits < 0 || p.Digits > MaxDigits {
				return nil, fmt.Errorf("tuple: field %q: string slot of %d bits, %d digits", f.Name, p.Bits, p.Digits)
			}
			sl.bits, sl.offset, sl.esc = p.Bits, p.Offset, nesc
			sl.prefix, sl.digits = p.Prefix, p.Digits
			if p.Digits == 0 {
				sl.lenBits = DigitCountBits
			}
			l.escaped = append(l.escaped, i)
			nesc++
			sl.at = nbits
			nbits += sl.lenBits + sl.bits
			continue
		case KindBytes:
			continue
		case KindChar:
			sl.at = nchar
			nchar += f.Size
			continue
		case KindBool:
			sl.bits = 1
		default:
			declared := 8 * f.Kind.FixedSize()
			if p.Bits < 0 {
				return nil, fmt.Errorf("tuple: field %q: negative width %d", f.Name, p.Bits)
			}
			if p.Bits < declared && nesc < maxEscapes {
				sl.bits, sl.offset, sl.esc = p.Bits, p.Offset, nesc
				l.escW[bits.TrailingZeros(uint(sl.size))] |= 1 << nesc
				l.escaped = append(l.escaped, i)
				nesc++
			} else {
				sl.bits = declared
			}
		}
		sl.at = nbits
		nbits += sl.bits
	}
	l.escLen = (nesc + 7) / 8
	l.bitsAt = 1 + l.nullLen + l.escLen
	l.charAt = l.bitsAt + (nbits+7)/8
	for i, f := range s.fields {
		if f.Kind == KindChar {
			l.slots[i].at += l.charAt
		}
	}
	l.escAt = l.charAt + nchar
	return l, nil
}

// Spec returns the layout's packing per field, normalised: what
// NewLayout rebuilds the same layout from.
func (l *Layout) Spec() []FieldPacking {
	spec := make([]FieldPacking, len(l.slots))
	for i, sl := range l.slots {
		if sl.kind != KindChar {
			spec[i] = FieldPacking{Bits: sl.bits, Offset: sl.offset, Prefix: sl.prefix, Digits: sl.digits}
		}
	}
	return spec
}

// HasStringSlots reports whether the layout stores any string as a slot:
// a file holding such records needs a reader that knows string slots.
func (l *Layout) HasStringSlots() bool {
	for _, i := range l.escaped {
		if l.slots[i].kind == KindString {
			return true
		}
	}
	return false
}

// EscapeFields returns the field each escape bit stands for: bit k of a
// record's escape bitmap (EncodeEscapes) is field EscapeFields()[k].
func (l *Layout) EscapeFields() []int { return append([]int(nil), l.escaped...) }

// Packed returns the layout Encode writes s's rows in, nil while s has
// adopted none.
func (s *Schema) Packed() *Layout { return s.packed.Load() }

// Adopt makes l, built by NewLayout for s, the layout Encode writes s's
// rows in from now on. A schema adopts once. Rows already written keep
// their layout: every decoder reads the layout a record names.
func (s *Schema) Adopt(l *Layout) error {
	if len(l.slots) != s.NumFields() {
		return fmt.Errorf("tuple: layout has %d fields, schema has %d", len(l.slots), s.NumFields())
	}
	if !s.packed.CompareAndSwap(nil, l) {
		return fmt.Errorf("tuple: schema %s already has a packed layout", s)
	}
	return nil
}

// fits reports whether v, not NULL, is inside an offset field's or a
// string slot's domain.
func (sl *slot) fits(v *Value) bool {
	if sl.kind == KindString {
		_, _, ok := sl.split(v.Str)
		return ok
	}
	x := v.Int
	if sl.kind == KindFloat64 {
		const two63 = 1 << 63
		if !(v.Float >= -two63 && v.Float < two63) {
			return false // NaN, ±Inf and doubles no int64 holds
		}
		x = int64(v.Float)
		if math.Float64bits(float64(x)) != math.Float64bits(v.Float) {
			return false // a fraction, or −0
		}
	}
	return (uint64(x)-uint64(sl.offset))>>sl.bits == 0
}

// split returns what a string slot stores for s: the decimal after its
// prefix as an offset from the slot's, and the decimal's digit count. ok
// is false for a value outside the slot's domain: without the prefix,
// with anything but 0–9 after it, with more than MaxDigits digits or
// another count than a fixed one, or a decimal the bits cannot hold.
func (sl *slot) split(s string) (stored uint64, width int, ok bool) {
	if !strings.HasPrefix(s, sl.prefix) {
		return 0, 0, false
	}
	rest := s[len(sl.prefix):]
	if len(rest) > MaxDigits || (sl.lenBits == 0 && len(rest) != sl.digits) {
		return 0, 0, false
	}
	var n uint64
	for i := 0; i < len(rest); i++ {
		d := rest[i] - '0'
		if d > 9 {
			return 0, 0, false
		}
		n = n*10 + uint64(d)
	}
	stored = n - uint64(sl.offset)
	return stored, len(rest), stored>>sl.bits == 0
}

// rebuild is a string slot's value in a packed record whose packed
// section is packed: the prefix, then the decimal re-padded to its digit
// count. With a scratch it is appended to *scratch and is a view of it;
// without one it is a string of its own, one allocation. Its frames are
// kept small: a served read runs on a fresh goroutine, whose stack grows
// (a copy of it) when the deepest call of the read path does not fit.
func (sl *slot) rebuild(packed []byte, scratch *[]byte) string {
	width := sl.digits
	if sl.lenBits > 0 {
		width = int(loadBits(packed, sl.at, sl.lenBits))
	}
	var b []byte
	if scratch != nil {
		b = *scratch
	} else {
		b = make([]byte, 0, len(sl.prefix)+max(width, 20)) // 20: the digits of any uint64
	}
	start := len(b)
	b = AppendDigits(append(b, sl.prefix...), loadBits(packed, sl.at+sl.lenBits, sl.bits)+uint64(sl.offset), width)
	if scratch != nil {
		*scratch = b
	}
	return aliasString(b[start:])
}

// AppendDigits appends n in decimal to dst, left-padded with zeros to
// width digits: the one rule a digit string is rebuilt by, in a string
// slot and in the §4.1 report's codec (encoding.PackedCodec). Zero has no
// digit of its own, so width 0 writes nothing for it and width 3 writes
// "000".
func AppendDigits(dst []byte, n uint64, width int) []byte {
	k := 0
	for x := n; x > 0; x /= 10 {
		k++
	}
	start := len(dst)
	dst = append(dst, make([]byte, max(k, width))...)
	for i := len(dst) - 1; i >= start; i-- {
		dst[i] = byte('0' + n%10)
		n /= 10
	}
	return dst
}

// inSlot reports whether var field i of a record whose escape bitmap is
// esc is stored in l's packed section — a string slot its value did not
// escape — instead of the var section. A nil l is the declared layout,
// which has no slots.
func (l *Layout) inSlot(i int, esc uint64) bool {
	if l == nil {
		return false
	}
	sl := &l.slots[i]
	return sl.esc >= 0 && esc&(1<<sl.esc) == 0
}

// escapesOf returns the escape bitmap r takes in l.
func (l *Layout) escapesOf(r Row) uint64 {
	var esc uint64
	for k, i := range l.escaped {
		if v := &r[i]; !v.Null && !l.slots[i].fits(v) {
			esc |= 1 << k
		}
	}
	return esc
}

// escOffset returns the escape-area bytes the escaped fields below
// escape bit k take; escOffset(esc, maxEscapes) is the whole area.
func (l *Layout) escOffset(esc uint64, k int) int {
	below := esc & (uint64(1)<<uint(k) - 1)
	return bits.OnesCount64(below&l.escW[0]) + 2*bits.OnesCount64(below&l.escW[1]) +
		4*bits.OnesCount64(below&l.escW[2]) + 8*bits.OnesCount64(below&l.escW[3])
}

// escapes reads a packed record's escape bitmap.
func (l *Layout) escapes(data []byte) uint64 {
	var esc uint64
	for k, b := range data[1+l.nullLen : l.bitsAt] {
		esc |= uint64(b) << (8 * k)
	}
	return esc
}

// fixedEnd returns where a packed record's fixed part ends: its escape
// area's end, the start of its var section.
func (l *Layout) fixedEnd(data []byte) (int, uint64, error) {
	if len(data) < l.escAt {
		return 0, 0, fmt.Errorf("tuple: row truncated: %d bytes, need at least %d", len(data), l.escAt)
	}
	esc := l.escapes(data)
	end := l.escAt + l.escOffset(esc, maxEscapes)
	if len(data) < end {
		return 0, 0, fmt.Errorf("tuple: row truncated: %d bytes, need at least %d", len(data), end)
	}
	return end, esc, nil
}

// size is the bytes Encode writes for r in l.
func (l *Layout) size(s *Schema, r Row) int {
	esc := l.escapesOf(r)
	return l.escAt + l.escOffset(esc, maxEscapes) + varSize(s, r, l, esc)
}

// encode appends r, already validated, in l, and returns its escape
// bitmap.
func (l *Layout) encode(s *Schema, r Row, dst []byte) ([]byte, uint64) {
	esc := l.escapesOf(r)
	start := len(dst)
	dst = append(dst, make([]byte, l.escAt+l.escOffset(esc, maxEscapes))...)
	rec := dst[start:]
	rec[0] = TagPacked
	for k := 0; k < l.escLen; k++ {
		rec[1+l.nullLen+k] = byte(esc >> (8 * k))
	}
	packed, at := rec[l.bitsAt:l.charAt], l.escAt
	for i := range l.slots {
		v, sl := &r[i], &l.slots[i]
		escaped := sl.esc >= 0 && esc&(1<<sl.esc) != 0
		switch {
		case v.Null:
			rec[1+i/8] |= 1 << (i % 8)
		case sl.kind == KindChar:
			copy(rec[sl.at:], v.Str)
		case sl.kind == KindString && sl.esc >= 0 && !escaped:
			stored, width, _ := sl.split(v.Str)
			storeBits(packed, sl.at, sl.lenBits, uint64(width))
			storeBits(packed, sl.at+sl.lenBits, sl.bits, stored)
		case sl.kind == KindString, sl.kind == KindBytes:
			// verbatim, in the var section
		case escaped:
			putFixed(rec[at:], s.fields[i], *v)
			at += sl.size
		case sl.esc >= 0:
			x := v.Int
			if sl.kind == KindFloat64 {
				x = int64(v.Float)
			}
			storeBits(packed, sl.at, sl.bits, uint64(x)-uint64(sl.offset))
		case sl.kind == KindFloat64:
			storeBits(packed, sl.at, sl.bits, math.Float64bits(v.Float))
		case sl.kind == KindBool:
			if v.Int != 0 {
				storeBits(packed, sl.at, 1, 1)
			}
		default:
			storeBits(packed, sl.at, sl.bits, uint64(v.Int))
		}
	}
	return appendVar(s, r, dst, l, esc), esc
}

// fill sets *v to fixed-width field i of a packed record: data is the
// record, packed its packed section and esc its escape bitmap. A CHAR
// field outside the set (want false) stays empty.
func (l *Layout) fill(v *Value, data, packed []byte, i int, esc uint64, want, alias bool) {
	sl := &l.slots[i]
	*v = Value{Kind: sl.kind}
	switch {
	case sl.kind == KindChar:
		if want {
			v.Str = charString(data[sl.at:sl.at+sl.size], alias)
		}
	case sl.esc >= 0 && esc&(1<<sl.esc) != 0:
		*v = fixedValue(sl.kind, data[l.escAt+l.escOffset(esc, sl.esc):])
	case sl.esc >= 0:
		x := int64(loadBits(packed, sl.at, sl.bits) + uint64(sl.offset))
		if sl.kind == KindFloat64 {
			v.Float = float64(x)
		} else {
			v.Int = x
		}
	default:
		u := loadBits(packed, sl.at, sl.bits)
		switch sl.kind {
		case KindFloat64:
			v.Float = math.Float64frombits(u)
		case KindInt32:
			v.Int = int64(int32(u))
		case KindInt16:
			v.Int = int64(int16(u))
		case KindInt8:
			v.Int = int64(int8(u))
		default: // BIGINT, TIMESTAMP, BOOL
			v.Int = int64(u)
		}
	}
}

// loadBits reads the n-bit field at bit off of p, LSB first.
func loadBits(p []byte, off, n int) uint64 {
	if n == 0 {
		return 0
	}
	i, sh := off>>3, uint(off&7)
	var w uint64
	if i+8 <= len(p) {
		w = binary.LittleEndian.Uint64(p[i:])
	} else {
		for k := len(p) - 1; k >= i; k-- {
			w = w<<8 | uint64(p[k])
		}
	}
	v := w >> sh
	if sh != 0 && int(sh)+n > 64 {
		v |= uint64(p[i+8]) << (64 - sh) // the field's last bits sit in a ninth byte
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	return v
}

// storeBits writes v's low n bits at bit off of p, whose bits there are
// zero.
func storeBits(p []byte, off, n int, v uint64) {
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	if i, sh := off>>3, uint(off&7); i+8 <= len(p) {
		binary.LittleEndian.PutUint64(p[i:], binary.LittleEndian.Uint64(p[i:])|v<<sh)
		if sh != 0 && int(sh)+n > 64 {
			p[i+8] |= byte(v >> (64 - sh))
		}
		return
	}
	for n > 0 {
		i, sh := off>>3, uint(off&7)
		p[i] |= byte(v << sh)
		k := 8 - int(sh)
		v >>= uint(k)
		off += k
		n -= k
	}
}
