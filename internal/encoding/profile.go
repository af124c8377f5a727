package encoding

import (
	"math"
	"strings"

	"repro/internal/tuple"
)

// distinctCap bounds the per-column distinct-value set kept during
// profiling; beyond it dictionary encoding is off the table anyway.
const distinctCap = 4096

// ColumnProfile accumulates value statistics for one column — the raw
// material for an encoding recommendation. Observe is called once per
// row; the profile never stores more than distinctCap values.
type ColumnProfile struct {
	Field tuple.Field
	Rows  int64
	Nulls int64

	// Numeric statistics (Int*, Bool and Timestamp kinds).
	MinInt, MaxInt int64
	intSeen        bool

	// Float statistics.
	AllIntegralFloats bool
	floatSeen         bool

	// String/char statistics.
	MaxLen         int
	TotalLen       int64
	AllTimestamp14 bool
	strSeen        bool
	// Prefix is the longest prefix every non-NULL string value observed
	// shares; Rest describes what follows it.
	Prefix  string
	rest    [tuple.MaxDigits + 1]span // per remainder length: the decimals seen that long
	restOff bool                      // a remainder was no decimal of at most MaxDigits digits

	distinct         map[string]struct{}
	distinctBytes    int64 // total bytes across distinct values
	DistinctOverflow bool
}

// NewColumnProfile starts an empty profile for the field.
func NewColumnProfile(f tuple.Field) *ColumnProfile {
	return &ColumnProfile{
		Field:             f,
		AllTimestamp14:    true,
		AllIntegralFloats: true,
		distinct:          make(map[string]struct{}),
	}
}

// Distinct returns the number of distinct non-null values seen, valid
// only when DistinctOverflow is false.
func (p *ColumnProfile) Distinct() int { return len(p.distinct) }

// Observe feeds one value into the profile.
func (p *ColumnProfile) Observe(v tuple.Value) {
	p.Rows++
	if v.Null {
		p.Nulls++
		return
	}
	switch v.Kind {
	case tuple.KindInt64, tuple.KindInt32, tuple.KindInt16, tuple.KindInt8,
		tuple.KindBool, tuple.KindTimestamp:
		p.observeInt(v.Int)
		p.observeDistinct(string(intKeyBytes(v.Int)))
	case tuple.KindFloat64:
		p.floatSeen = true
		if v.Float != math.Trunc(v.Float) || math.Abs(v.Float) > 1e15 {
			p.AllIntegralFloats = false
		} else {
			p.observeInt(int64(v.Float))
		}
		p.observeDistinct(string(intKeyBytes(int64(math.Float64bits(v.Float)))))
	case tuple.KindChar, tuple.KindString:
		p.observeString(v.Str)
	case tuple.KindBytes:
		p.strSeen = true
		p.AllTimestamp14 = false
		p.restOff = true
		if len(v.Raw) > p.MaxLen {
			p.MaxLen = len(v.Raw)
		}
		p.TotalLen += int64(len(v.Raw))
		p.observeDistinct(string(v.Raw))
	}
}

func (p *ColumnProfile) observeInt(x int64) {
	if !p.intSeen {
		p.MinInt, p.MaxInt = x, x
		p.intSeen = true
		return
	}
	if x < p.MinInt {
		p.MinInt = x
	}
	if x > p.MaxInt {
		p.MaxInt = x
	}
}

func (p *ColumnProfile) observeString(s string) {
	if len(s) > p.MaxLen {
		p.MaxLen = len(s)
	}
	p.TotalLen += int64(len(s))
	if _, ok := ParseTS14(s); !ok {
		p.AllTimestamp14 = false
	}
	p.observeRest(s)
	p.strSeen = true
	p.observeDistinct(s)
}

// span is the least and greatest of a set of decimals.
type span struct {
	lo, hi int64
	seen   bool
}

func (sp *span) add(lo, hi int64) {
	if !sp.seen {
		*sp = span{lo: lo, hi: hi, seen: true}
		return
	}
	sp.lo, sp.hi = min(sp.lo, lo), max(sp.hi, hi)
}

// observeRest narrows Prefix to what s shares with it and notes the
// decimal s carries after it. Narrowing moves every earlier remainder:
// the bytes cut off the prefix become its leading digits, which shifts
// each remainder length's span by the same amount.
func (p *ColumnProfile) observeRest(s string) {
	if !p.strSeen {
		p.Prefix = strings.Clone(s) // s may be a view of a reader's scratch
	}
	k := 0
	for k < len(p.Prefix) && k < len(s) && p.Prefix[k] == s[k] {
		k++
	}
	if cut := p.Prefix[k:]; cut != "" && !p.restOff {
		c, ok := parseDecimal(cut)
		var moved [tuple.MaxDigits + 1]span
		for n, sp := range p.rest {
			if sp.seen && ok {
				if ok = n+len(cut) <= tuple.MaxDigits; ok {
					lead := c * pow10(n)
					moved[n+len(cut)] = span{lo: lead + sp.lo, hi: lead + sp.hi, seen: true}
				}
			}
		}
		p.rest, p.restOff = moved, !ok
	}
	p.Prefix = p.Prefix[:k]
	if n, ok := parseDecimal(s[k:]); ok {
		p.rest[len(s)-k].add(n, n)
	} else {
		p.restOff = true
	}
}

// Rest describes the decimals that follow Prefix in the values observed:
// their span and their fewest and most digits. ok is false when some
// value's remainder is not a decimal of at most tuple.MaxDigits digits,
// and when no string was observed.
func (p *ColumnProfile) Rest() (lo, hi int64, minLen, maxLen int, ok bool) {
	if p.restOff || !p.strSeen {
		return 0, 0, 0, 0, false
	}
	var all span
	minLen = -1
	for n, sp := range p.rest {
		if sp.seen {
			all.add(sp.lo, sp.hi)
			if minLen < 0 {
				minLen = n
			}
			maxLen = n
		}
	}
	return all.lo, all.hi, minLen, maxLen, true
}

// parseDecimal reads s, at most tuple.MaxDigits digits 0–9 and nothing
// else, as a number; the empty string is 0.
func parseDecimal(s string) (int64, bool) {
	if len(s) > tuple.MaxDigits {
		return 0, false
	}
	var n int64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int64(d)
	}
	return n, true
}

func pow10(n int) int64 {
	x := int64(1)
	for ; n > 0; n-- {
		x *= 10
	}
	return x
}

func (p *ColumnProfile) observeDistinct(key string) {
	if p.DistinctOverflow {
		return
	}
	if _, ok := p.distinct[key]; ok {
		return
	}
	if len(p.distinct) >= distinctCap {
		p.DistinctOverflow = true
		return
	}
	p.distinct[key] = struct{}{}
	p.distinctBytes += int64(len(key))
}

// DistinctBytes returns the total payload bytes across distinct values
// — the size of the dictionary a dictionary encoding would need.
func (p *ColumnProfile) DistinctBytes() int64 { return p.distinctBytes }

// DistinctStrings returns the observed distinct string values in
// arbitrary order (dictionary building). Only meaningful for string
// columns without overflow.
func (p *ColumnProfile) DistinctStrings() []string {
	out := make([]string, 0, len(p.distinct))
	for s := range p.distinct {
		out = append(out, s)
	}
	return out
}

// HasNulls reports whether any NULL was observed.
func (p *ColumnProfile) HasNulls() bool { return p.Nulls > 0 }

// AvgLen returns the mean byte length of non-null string values.
func (p *ColumnProfile) AvgLen() float64 {
	n := p.Rows - p.Nulls
	if n <= 0 {
		return 0
	}
	return float64(p.TotalLen) / float64(n)
}

func intKeyBytes(x int64) []byte {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(x >> (8 * i))
	}
	return b[:]
}

// ProfileRows profiles every column of a row stream. next returns
// (row, true) until exhausted.
func ProfileRows(schema *tuple.Schema, next func() (tuple.Row, bool)) []*ColumnProfile {
	profiles := make([]*ColumnProfile, schema.NumFields())
	for i := range profiles {
		profiles[i] = NewColumnProfile(schema.Field(i))
	}
	for {
		row, ok := next()
		if !ok {
			break
		}
		for i, v := range row {
			profiles[i].Observe(v)
		}
	}
	return profiles
}
