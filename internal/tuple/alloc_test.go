//go:build !race

// The race detector's instrumentation changes allocation counts, so
// these run without it.

package tuple_test

import (
	"testing"

	"repro/internal/tuple"
)

// A string slot rebuilt as a view costs no allocation once the scratch
// has room; a copying decode gives a digit or timestamp slot's string
// one, as it gives a verbatim string its copy. A dictionary slot's value
// is the layout's own string: no allocation either way.
func TestStringSlotRebuildAllocations(t *testing.T) {
	for _, c := range []struct {
		name   string
		p      tuple.FieldPacking
		v      string
		copies float64
	}{
		{"digits", tuple.FieldPacking{Bits: 20, Prefix: "item-", Digits: 6}, "item-001812", 1},
		{"timestamp", tuple.FieldPacking{Bits: 32, Rule: tuple.RuleTS14}, "20110104123456", 1},
		{"dictionary", tuple.FieldPacking{Bits: 2, Rule: tuple.RuleDict, Dict: []string{"gzip", "utf-8"}}, "utf-8", 0},
	} {
		s, rec := oneSlot(t, tuple.Field{Name: "name", Kind: tuple.KindString}, c.p, c.v)
		scratch := make([]byte, 0, 64)
		dst := make(tuple.Row, 1)
		if a := testing.AllocsPerRun(100, func() {
			_, _, _ = tuple.DecodeAlias(dst, s, rec, nil, &scratch)
			scratch = scratch[:0]
		}); a != 0 {
			t.Errorf("%s: DecodeAlias with scratch allocated %.0f times", c.name, a)
		}
		if a := testing.AllocsPerRun(100, func() { _, _, _ = tuple.DecodeFields(dst, s, rec, nil) }); a != c.copies {
			t.Errorf("%s: DecodeFields rebuilt the string in %.0f allocations, want %.0f", c.name, a, c.copies)
		}
	}
}
