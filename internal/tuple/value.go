package tuple

import (
	"bytes"
	"fmt"
	"time"
)

// Value is a tagged union holding one field value. The zero Value is
// NULL of invalid kind.
type Value struct {
	Kind  Kind
	Null  bool
	Int   int64   // KindInt*, KindBool (0/1), KindTimestamp
	Float float64 // KindFloat64
	Str   string  // KindChar, KindString
	Raw   []byte  // KindBytes
}

// Int64 returns an INT64 value.
func Int64(v int64) Value { return Value{Kind: KindInt64, Int: v} }

// Int32 returns an INT32 value.
func Int32(v int32) Value { return Value{Kind: KindInt32, Int: int64(v)} }

// Int16 returns an INT16 value.
func Int16(v int16) Value { return Value{Kind: KindInt16, Int: int64(v)} }

// Int8 returns an INT8 value.
func Int8(v int8) Value { return Value{Kind: KindInt8, Int: int64(v)} }

// Bool returns a BOOL value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{Kind: KindBool, Int: i}
}

// Float64 returns a DOUBLE value.
func Float64(v float64) Value { return Value{Kind: KindFloat64, Float: v} }

// Char returns a fixed-width CHAR value (padded/truncated at encode time).
func Char(s string) Value { return Value{Kind: KindChar, Str: s} }

// String returns a VARCHAR value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Bytes returns a VARBINARY value.
func Bytes(b []byte) Value { return Value{Kind: KindBytes, Raw: b} }

// Timestamp returns a TIMESTAMP value from a time.Time (second
// precision, matching the paper's 4-byte-timestamp discussion).
func Timestamp(t time.Time) Value { return Value{Kind: KindTimestamp, Int: t.Unix()} }

// TimestampUnix returns a TIMESTAMP value from epoch seconds.
func TimestampUnix(sec int64) Value { return Value{Kind: KindTimestamp, Int: sec} }

// Null returns a NULL value of the given kind.
func Null(k Kind) Value { return Value{Kind: k, Null: true} }

// AsTime converts a TIMESTAMP value to time.Time (UTC).
func (v Value) AsTime() time.Time { return time.Unix(v.Int, 0).UTC() }

// Equal reports deep equality of two values, including kind and nullness.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind || v.Null != o.Null {
		return false
	}
	if v.Null {
		return true
	}
	switch v.Kind {
	case KindFloat64:
		return v.Float == o.Float
	case KindChar, KindString:
		return v.Str == o.Str
	case KindBytes:
		return bytes.Equal(v.Raw, o.Raw)
	default:
		return v.Int == o.Int
	}
}

// Compare orders two values of the same kind: -1, 0, or +1. NULL sorts
// before every non-NULL value. Comparing different kinds panics; the
// caller (B+Tree, sorter) is responsible for schema agreement.
func (v Value) Compare(o Value) int {
	if v.Kind != o.Kind {
		panic(fmt.Sprintf("tuple: compare of mismatched kinds %v and %v", v.Kind, o.Kind))
	}
	switch {
	case v.Null && o.Null:
		return 0
	case v.Null:
		return -1
	case o.Null:
		return 1
	}
	switch v.Kind {
	case KindFloat64:
		switch {
		case v.Float < o.Float:
			return -1
		case v.Float > o.Float:
			return 1
		}
		return 0
	case KindChar, KindString:
		switch {
		case v.Str < o.Str:
			return -1
		case v.Str > o.Str:
			return 1
		}
		return 0
	case KindBytes:
		return bytes.Compare(v.Raw, o.Raw)
	default:
		switch {
		case v.Int < o.Int:
			return -1
		case v.Int > o.Int:
			return 1
		}
		return 0
	}
}

// String renders the value for debugging.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case KindFloat64:
		return fmt.Sprintf("%g", v.Float)
	case KindChar, KindString:
		return fmt.Sprintf("%q", v.Str)
	case KindBytes:
		return fmt.Sprintf("0x%x", v.Raw)
	case KindBool:
		if v.Int != 0 {
			return "true"
		}
		return "false"
	case KindTimestamp:
		return v.AsTime().Format(time.RFC3339)
	default:
		return fmt.Sprintf("%d", v.Int)
	}
}

// Row is an ordered list of values matching a schema.
type Row []Value

// Equal reports deep equality of two rows.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the row (Bytes values are copied).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for i, v := range r {
		if v.Kind == KindBytes && v.Raw != nil {
			v.Raw = append([]byte(nil), v.Raw...)
		}
		out[i] = v
	}
	return out
}
