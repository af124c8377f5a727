// Package tuple defines schemas, values, the row codec, and the
// order-preserving key encoding used by the B+Tree.
//
// A Schema records the *declared* types of a table's fields. Following
// the paper's Section 4.1, declared types are treated as hints: the
// encoding analyzer (internal/encoding) chooses narrower widths from a
// profile of real rows, and a schema may adopt them once as its packed
// record layout (layout.go). Every record names the layout it was
// written in, so rows in the declared layout stay readable after the
// adoption.
package tuple

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Kind enumerates declared field types.
type Kind uint8

// Declared field kinds.
const (
	// The zero Kind declares no type.
	_             Kind = iota
	KindInt64          // 8-byte signed integer
	KindInt32          // 4-byte signed integer
	KindInt16          // 2-byte signed integer
	KindInt8           // 1-byte signed integer
	KindBool           // 1 byte
	KindFloat64        // 8-byte IEEE 754
	KindChar           // fixed-length byte string, padded with zeros
	KindString         // variable-length string
	KindBytes          // variable-length byte string
	KindTimestamp      // 8-byte seconds-since-epoch
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt64:
		return "BIGINT"
	case KindInt32:
		return "INT"
	case KindInt16:
		return "SMALLINT"
	case KindInt8:
		return "TINYINT"
	case KindBool:
		return "BOOL"
	case KindFloat64:
		return "DOUBLE"
	case KindChar:
		return "CHAR"
	case KindString:
		return "VARCHAR"
	case KindBytes:
		return "VARBINARY"
	case KindTimestamp:
		return "TIMESTAMP"
	default:
		return "INVALID"
	}
}

// FixedSize returns the number of bytes a value of this kind occupies in
// the fixed section of a row, or -1 for variable-length kinds. Char
// reports -1 here because its width comes from the field definition.
func (k Kind) FixedSize() int {
	switch k {
	case KindInt64, KindFloat64, KindTimestamp:
		return 8
	case KindInt32:
		return 4
	case KindInt16:
		return 2
	case KindInt8, KindBool:
		return 1
	default:
		return -1
	}
}

// Field is one column of a schema.
type Field struct {
	Name string
	Kind Kind
	// Size is the fixed byte width for KindChar and the declared maximum
	// for KindString/KindBytes (0 = unbounded). Ignored otherwise.
	Size int
}

// width returns the byte width of the field in the fixed section, or -1
// if the field is variable length.
func (f Field) width() int {
	if f.Kind == KindChar {
		return f.Size
	}
	return f.Kind.FixedSize()
}

// DeclaredBits returns the storage footprint, in bits, that the declared
// type reserves per value (the Section 4 "allocated" size). For
// variable-length kinds it returns 8×Size when a maximum is declared and
// 0 otherwise (unknown).
func (f Field) DeclaredBits() int {
	if w := f.width(); w >= 0 {
		return 8 * w
	}
	return 8 * f.Size
}

// Schema is an ordered list of fields.
type Schema struct {
	fields []Field
	byName map[string]int

	fixedWidth int   // total bytes of the fixed section
	fixedOff   []int // declared fixed-section offset per field (-1: variable length)
	varIdx     []int // indexes of variable-length fields, in order

	packed atomic.Pointer[Layout] // the adopted layout; nil until Adopt
}

// NewSchema builds a schema, validating field names and kinds.
func NewSchema(fields ...Field) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("tuple: schema needs at least one field")
	}
	s := &Schema{
		fields:   append([]Field(nil), fields...),
		byName:   make(map[string]int, len(fields)),
		fixedOff: make([]int, len(fields)),
	}
	for i, f := range s.fields {
		if f.Name == "" {
			return nil, fmt.Errorf("tuple: field %d has empty name", i)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("tuple: duplicate field name %q", f.Name)
		}
		switch f.Kind {
		case KindInt64, KindInt32, KindInt16, KindInt8, KindBool, KindFloat64, KindTimestamp:
		case KindChar:
			if f.Size <= 0 {
				return nil, fmt.Errorf("tuple: CHAR field %q needs positive size", f.Name)
			}
		case KindString, KindBytes:
			if f.Size < 0 {
				return nil, fmt.Errorf("tuple: field %q has negative size", f.Name)
			}
		default:
			return nil, fmt.Errorf("tuple: field %q has invalid kind", f.Name)
		}
		s.byName[f.Name] = i
		if w := f.width(); w >= 0 {
			s.fixedOff[i] = s.fixedWidth
			s.fixedWidth += w
		} else {
			s.fixedOff[i] = -1
			s.varIdx = append(s.varIdx, i)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for tests and fixed
// built-in schemas.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumFields returns the number of fields.
func (s *Schema) NumFields() int { return len(s.fields) }

// Field returns the i-th field.
func (s *Schema) Field(i int) Field { return s.fields[i] }

// Fields returns a copy of the field list.
func (s *Schema) Fields() []Field { return append([]Field(nil), s.fields...) }

// Index returns the position of the named field, or -1.
func (s *Schema) Index(name string) int {
	i, ok := s.byName[name]
	if !ok {
		return -1
	}
	return i
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.fields {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", f.Name, f.Kind)
		if f.Kind == KindChar || ((f.Kind == KindString || f.Kind == KindBytes) && f.Size > 0) {
			fmt.Fprintf(&b, "(%d)", f.Size)
		}
	}
	b.WriteByte(')')
	return b.String()
}
