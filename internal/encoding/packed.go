package encoding

import (
	"slices"
	"unicode/utf8"

	"repro/internal/tuple"
)

// RecordPacking turns the advisor's recommendation for each profiled
// column into the field packing of a tuple.Layout, the one codec that
// stores what the advice allows: booleans in one bit, integers and
// integral doubles as offsets from the profiled minimum in the advised
// bits, timestamps as offsets from theirs in the advised 32, and a
// VARCHAR or CHAR the advisor reads as a numeric string, a timestamp14 or
// a dictionary as a string slot — its shared prefix once and the decimal
// after it, its epoch, or its index into the dictionary, which the
// layout keeps once. A value outside the profile escapes: it is stored
// as declared, never refused. Every other string stays verbatim and true
// doubles keep their 64 bits. So does a string whose prefix or
// dictionary is not valid UTF-8: the engine logs and checkpoints a
// layout as JSON, which would bring those bytes back as other ones.
func RecordPacking(profiles []*ColumnProfile) []tuple.FieldPacking {
	out := make([]tuple.FieldPacking, len(profiles))
	for i, p := range profiles {
		switch rec := Advise(p); rec.Enc {
		case EncBool:
			out[i].Bits = 1
		case EncInt:
			out[i] = tuple.FieldPacking{Bits: rec.Bits, Offset: rec.Offset}
		case EncEpoch32:
			if p.Field.Kind == tuple.KindTimestamp {
				out[i] = tuple.FieldPacking{Bits: rec.Bits, Offset: p.MinInt}
			} else {
				out[i] = tuple.FieldPacking{Bits: rec.Bits, Rule: tuple.RuleTS14}
			}
		case EncFloat:
			out[i].Bits = rec.Bits
		case EncNumericString:
			if utf8.ValidString(rec.Prefix) {
				out[i] = tuple.FieldPacking{Bits: rec.Bits, Offset: rec.Offset, Prefix: rec.Prefix, Digits: rec.Digits}
			}
		case EncDict:
			if !slices.ContainsFunc(rec.Dict, func(v string) bool { return !utf8.ValidString(v) }) {
				out[i] = tuple.FieldPacking{Bits: rec.Bits, Rule: tuple.RuleDict, Dict: rec.Dict}
			}
		}
	}
	return out
}

// PackedSchema returns a copy of schema that writes its rows in the
// layout RecordPacking builds from the report's profiles: the report's
// recommendations as the engine stores them (tuple.Encode), and reads
// them back (tuple.Decode).
func PackedSchema(schema *tuple.Schema, report TableReport) (*tuple.Schema, error) {
	profiles := make([]*ColumnProfile, len(report.Columns))
	for i, c := range report.Columns {
		profiles[i] = c.Profile
	}
	packed, err := tuple.NewSchema(schema.Fields()...)
	if err != nil {
		return nil, err
	}
	l, err := tuple.NewLayout(packed, RecordPacking(profiles))
	if err != nil {
		return nil, err
	}
	return packed, packed.Adopt(l)
}
