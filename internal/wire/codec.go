package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/tuple"
)

// Value encoding is self-describing: [kind uint8][flags uint8][body].
// flag bit 0 marks NULL (no body). Numeric kinds (ints, bool,
// timestamp) carry a zigzag varint; Float64 carries 8 bytes LE of the
// IEEE bits; Char/String/Bytes carry a uvarint length then the bytes.
// Rows are a uvarint count followed by that many values. Nothing here
// depends on a schema, so clients decode results without catalog
// round-trips.

const flagNull = 1

var errTruncated = errors.New("wire: truncated message")

// --- append side ---

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBytes(dst []byte, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendValue appends one self-describing value.
func AppendValue(dst []byte, v tuple.Value) []byte {
	var flags byte
	if v.Null {
		flags |= flagNull
	}
	dst = append(dst, byte(v.Kind), flags)
	if v.Null {
		return dst
	}
	switch v.Kind {
	case tuple.KindFloat64:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float))
	case tuple.KindChar, tuple.KindString:
		dst = appendString(dst, v.Str)
	case tuple.KindBytes:
		dst = appendBytes(dst, v.Raw)
	default:
		dst = binary.AppendVarint(dst, v.Int)
	}
	return dst
}

// AppendRow appends a row as a uvarint count plus each value.
func AppendRow(dst []byte, r tuple.Row) []byte {
	dst = appendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// --- read side ---

// reader walks a payload, latching the first error so decode code can
// read fields unconditionally and check once at the end.
//
// String and bytes values alias own, and each message decodes under
// one of two rules about what own is:
//
//   - A response, and a request whose names go into the catalog
//     (CreateTableReq, CreateIndexReq): the payload sits in a pooled
//     buffer that outlives the decode only until its release, and what
//     is decoded outlives that. own is one private copy of the payload,
//     made at the first such value and never written again. A message
//     then costs one copy however many strings it carries, and its
//     strings are as immutable as any — at the price that one kept
//     string keeps the whole copy reachable (a frame's payload; a page is
//     at most MaxPooledBuffer plus one row).
//   - A request the server answers from its own frame (ApplyReq, GetReq,
//     QueryReq): own is the payload itself. The server does not write
//     that frame until it has answered, and nothing decoded from it is
//     kept past the answer — the engine encodes rows and keys before it
//     returns, and a transaction stages its own copies — so the views
//     are immutable for as long as anything reads them, and the decode
//     copies nothing.
type reader struct {
	b   []byte
	off int
	err error
	own []byte // what views alias: b itself, or a private copy made by view
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.b) {
		r.fail(errTruncated)
		return 0
	}
	b := r.b[r.off]
	r.off++
	return b
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail(errTruncated)
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// count reads a uvarint element count and bounds it by the bytes that
// remain, so a corrupt count cannot drive a huge allocation.
func (r *reader) count(minPer int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if minPer < 1 {
		minPer = 1
	}
	if n > uint64(len(r.b)-r.off)/uint64(minPer)+1 {
		r.fail(errTruncated)
		return 0
	}
	return int(n)
}

// view reads n bytes and returns them from own (see reader), copying
// the payload there first if the message has no view of it yet, capped
// so an append to them cannot reach the bytes that follow.
func (r *reader) view(n int) []byte {
	if r.take(n) == nil || n == 0 {
		return nil
	}
	if r.own == nil {
		r.own = append([]byte(nil), r.b...)
	}
	return r.own[r.off-n : r.off : r.off]
}

// string reads a length-prefixed string as a view of own (see reader).
// own is not written while the string is read, which is what makes the
// unsafe conversion a string.
func (r *reader) string() string {
	b := r.view(int(r.uvarint()))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// name reads a string that usually repeats from one message to the
// next on a reused receiver (table, index and field names): when it
// equals prev, prev is returned and no string is built.
func (r *reader) name(prev string) string {
	b := r.take(int(r.uvarint()))
	if string(b) == prev {
		return prev
	}
	return string(b)
}

func (r *reader) bytes() []byte { return r.view(int(r.uvarint())) }

func (r *reader) value() tuple.Value {
	kind := tuple.Kind(r.byte())
	flags := r.byte()
	if r.err != nil {
		return tuple.Value{}
	}
	v := tuple.Value{Kind: kind}
	if flags&flagNull != 0 {
		v.Null = true
		return v
	}
	switch kind {
	case tuple.KindFloat64:
		b := r.take(8)
		if r.err == nil {
			v.Float = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	case tuple.KindChar, tuple.KindString:
		v.Str = r.string()
	case tuple.KindBytes:
		v.Raw = r.bytes()
	case tuple.KindInt64, tuple.KindInt32, tuple.KindInt16, tuple.KindInt8,
		tuple.KindBool, tuple.KindTimestamp:
		v.Int = r.varint()
	default:
		r.fail(fmt.Errorf("wire: bad value kind %d", kind))
	}
	return v
}

// row decodes a row into dst's backing array when it fits (dst may be
// nil). An absent row (count 0) decodes as dst[:0]: nil on a fresh
// receiver, possibly empty-but-non-nil on a reused one.
func (r *reader) row(dst tuple.Row) tuple.Row {
	n := r.count(2)
	dst = dst[:0]
	if r.err != nil || n == 0 {
		return dst
	}
	if cap(dst) < n {
		dst = make(tuple.Row, 0, n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.value())
		if r.err != nil {
			return dst[:0]
		}
	}
	return dst
}

// DecodeValue decodes one value from b (for tests and tools).
func DecodeValue(b []byte) (tuple.Value, int, error) {
	r := reader{b: b}
	v := r.value()
	return v, r.off, r.err
}
