package encoding

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tuple"
)

// Enc enumerates physical encodings the advisor can choose.
type Enc uint8

// Encoding choices.
const (
	// EncInt stores value-MinInt in Bits bits.
	EncInt Enc = iota
	// EncBool stores one bit.
	EncBool
	// EncFloat stores the raw 64 IEEE bits.
	EncFloat
	// EncEpoch32 stores a 32-bit epoch (timestamps, incl. timestamp14
	// strings, regenerated on decode).
	EncEpoch32
	// EncNumericString stores a string as the prefix the column shares,
	// kept once, and the decimal after it as an offset integer, plus a
	// 5-bit digit count unless every value has the same one (leading
	// zeros come back by re-padding).
	EncNumericString
	// EncDict stores an index into a value dictionary in Bits bits.
	EncDict
	// EncRaw stores length-prefixed raw bytes (no win found).
	EncRaw
)

// String names the encoding.
func (e Enc) String() string {
	switch e {
	case EncInt:
		return "int"
	case EncBool:
		return "bool-bit"
	case EncFloat:
		return "float64"
	case EncEpoch32:
		return "epoch32"
	case EncNumericString:
		return "numeric-string"
	case EncDict:
		return "dictionary"
	case EncRaw:
		return "raw"
	default:
		return "?"
	}
}

// Recommendation is the advisor's verdict for one column.
type Recommendation struct {
	Field tuple.Field
	Enc   Enc
	// Bits is the fixed payload width per non-null value (excluding the
	// null bit). 0 for EncRaw (variable) and for constant columns.
	Bits int
	// Offset is subtracted before storing EncInt values.
	Offset int64
	// Dict is the value dictionary for EncDict, sorted.
	Dict []string
	// OverheadBits is what the encoding stores once per column — a
	// dictionary, a shared prefix — amortized per row; it counts toward
	// the encoding's true cost.
	OverheadBits float64
	// Prefix is the prefix every EncNumericString value starts with, and
	// Digits the digit count of the decimal after it when every value has
	// the same one (0: each value stores its own).
	Prefix string
	Digits int
	// Nullable reserves a null bit per value.
	Nullable bool
	// Note explains the decision for the report.
	Note string
}

// BitsPerValue returns the average storage cost per value including the
// null bit and, for EncRaw, the measured average length.
func (r Recommendation) BitsPerValue(p *ColumnProfile) float64 {
	bits := float64(r.Bits)
	if r.Enc == EncRaw {
		bits = 8*p.AvgLen() + 16 // 2-byte length prefix
	}
	if r.Enc == EncNumericString && r.Digits == 0 {
		bits += tuple.DigitCountBits // stored digit count for zero-padding reconstruction
	}
	bits += r.OverheadBits
	if r.Nullable {
		bits++
	}
	return bits
}

// Advise chooses the minimal physical encoding for a profiled column —
// Section 4.1's "infer true field types and value distributions to
// modify internal field definitions".
func Advise(p *ColumnProfile) Recommendation {
	f := p.Field
	rec := Recommendation{Field: f, Nullable: p.HasNulls()}
	nonNull := p.Rows - p.Nulls
	switch f.Kind {
	case tuple.KindBool:
		rec.Enc = EncBool
		rec.Bits = 1
		rec.Note = "boolean to 1 bit"
	case tuple.KindInt64, tuple.KindInt32, tuple.KindInt16, tuple.KindInt8:
		if nonNull == 0 {
			rec.Enc, rec.Bits, rec.Note = EncInt, 0, "all NULL"
			break
		}
		rec.Enc = EncInt
		rec.Bits = spanBits(p.MinInt, p.MaxInt)
		rec.Offset = p.MinInt
		switch {
		case rec.Bits <= 1:
			rec.Note = fmt.Sprintf("%s holds 0/1-like range [%d,%d]: boolean in disguise", f.Kind, p.MinInt, p.MaxInt)
		default:
			rec.Note = fmt.Sprintf("%s holds [%d,%d]: %d bits suffice", f.Kind, p.MinInt, p.MaxInt, rec.Bits)
		}
	case tuple.KindTimestamp:
		rec.Enc = EncEpoch32
		rec.Bits = 32
		rec.Note = "timestamp to 32-bit epoch"
	case tuple.KindFloat64:
		if nonNull > 0 && p.AllIntegralFloats {
			rec.Enc = EncInt
			rec.Bits = spanBits(p.MinInt, p.MaxInt)
			rec.Offset = p.MinInt
			rec.Note = "float column holds only integers"
		} else {
			rec.Enc = EncFloat
			rec.Bits = 64
			rec.Note = "true doubles kept at 64 bits"
		}
	case tuple.KindChar, tuple.KindString, tuple.KindBytes:
		rec = adviseString(p, rec)
	default:
		rec.Enc = EncRaw
		rec.Note = "unknown kind kept raw"
	}
	return rec
}

// spanBits is the bits an offset from lo needs to reach hi: 64 for the
// whole int64 range, whose span one uint64 cannot count.
func spanBits(lo, hi int64) int {
	d := uint64(hi) - uint64(lo)
	if d == math.MaxUint64 {
		return 64
	}
	return BitsFor(d + 1)
}

func adviseString(p *ColumnProfile, rec Recommendation) Recommendation {
	nonNull := p.Rows - p.Nulls
	if nonNull == 0 {
		rec.Enc, rec.Bits, rec.Note = EncRaw, 0, "all NULL"
		return rec
	}
	if p.AllTimestamp14 && p.MaxLen == 14 {
		rec.Enc = EncEpoch32
		rec.Bits = 32
		rec.Note = "14-byte string timestamp to 4-byte epoch (the paper's flagship case)"
		return rec
	}
	// Digits after the shared prefix: numbers stored as text. A column
	// whose values are all its prefix (a constant) has no digits to store
	// and is left to the dictionary.
	if lo, hi, minLen, maxLen, ok := p.Rest(); ok && maxLen > 0 && p.Field.Kind != tuple.KindBytes {
		rec.Enc = EncNumericString
		rec.Prefix = p.Prefix
		rec.Bits = spanBits(lo, hi)
		rec.Offset = lo
		rec.OverheadBits = float64(8*len(p.Prefix)) / float64(nonNull)
		count := fmt.Sprintf(" + %d-bit digit count", tuple.DigitCountBits)
		if minLen == maxLen {
			rec.Digits, count = maxLen, ""
		}
		if p.Prefix == "" {
			rec.Note = fmt.Sprintf("numeric string [%d,%d] stored as %d-bit int%s", lo, hi, rec.Bits, count)
		} else {
			rec.Note = fmt.Sprintf("prefix %q kept once, digits [%d,%d] stored as %d-bit int%s", p.Prefix, lo, hi, rec.Bits, count)
		}
		return rec
	}
	if !p.DistinctOverflow && p.Field.Kind != tuple.KindBytes {
		dict := p.DistinctStrings()
		bits := BitsFor(uint64(len(dict)))
		// Dictionary pays off only when index bits plus the dictionary's
		// own storage (amortized per row) undercut raw storage — a column
		// of unique strings must never "win" this way.
		overhead := float64(p.DistinctBytes()*8) / float64(nonNull)
		rawBits := 8*p.AvgLen() + 16
		if float64(bits)+overhead < rawBits*0.75 {
			sort.Strings(dict)
			rec.Enc = EncDict
			rec.Bits = bits
			rec.Dict = dict
			rec.OverheadBits = overhead
			rec.Note = fmt.Sprintf("%d distinct values: %d-bit dictionary index (+%.1f amortized dict bits)", len(dict), bits, overhead)
			return rec
		}
	}
	rec.Enc = EncRaw
	rec.Note = "no narrower encoding found"
	return rec
}

// ColumnReport pairs a recommendation with its measured waste.
type ColumnReport struct {
	Rec          Recommendation
	Profile      *ColumnProfile
	DeclaredBits float64 // average bits the declared type spends/value
	OptimalBits  float64 // average bits the recommendation spends/value
}

// WastePct returns the percentage of the column's declared footprint
// the recommendation eliminates.
func (c ColumnReport) WastePct() float64 {
	if c.DeclaredBits <= 0 {
		return 0
	}
	w := (c.DeclaredBits - c.OptimalBits) / c.DeclaredBits * 100
	if w < 0 {
		return 0
	}
	return w
}

// TableReport aggregates column reports — the Section 4.1 analysis
// ("16% to 83% waste through simple techniques").
type TableReport struct {
	Name    string
	Rows    int64
	Columns []ColumnReport
}

// DeclaredBytes returns the table's data footprint under declared types.
func (t TableReport) DeclaredBytes() int64 {
	var bits float64
	for _, c := range t.Columns {
		bits += c.DeclaredBits
	}
	return int64(bits * float64(t.Rows) / 8)
}

// OptimalBytes returns the footprint under recommended encodings.
func (t TableReport) OptimalBytes() int64 {
	var bits float64
	for _, c := range t.Columns {
		bits += c.OptimalBits
	}
	return int64(bits * float64(t.Rows) / 8)
}

// WastePct returns the table-level waste percentage.
func (t TableReport) WastePct() float64 {
	d := t.DeclaredBytes()
	if d == 0 {
		return 0
	}
	return float64(d-t.OptimalBytes()) / float64(d) * 100
}

// AnalyzeRows profiles a row stream and produces the full report.
func AnalyzeRows(name string, schema *tuple.Schema, next func() (tuple.Row, bool)) TableReport {
	profiles := ProfileRows(schema, next)
	report := TableReport{Name: name}
	if len(profiles) > 0 {
		report.Rows = profiles[0].Rows
	}
	for _, p := range profiles {
		rec := Advise(p)
		declared := float64(p.Field.DeclaredBits())
		// VARCHAR/VARBINARY are stored variable-length regardless of the
		// declared maximum, so their true "declared" footprint is the
		// measured average plus a length prefix. CHAR stays padded.
		if p.Field.Kind == tuple.KindString || p.Field.Kind == tuple.KindBytes || declared == 0 {
			declared = 8*p.AvgLen() + 16
		}
		report.Columns = append(report.Columns, ColumnReport{
			Rec:          rec,
			Profile:      p,
			DeclaredBits: declared,
			OptimalBits:  rec.BitsPerValue(p),
		})
	}
	return report
}
