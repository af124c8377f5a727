//go:build !race

// The race detector's instrumentation changes allocation counts, so
// these run without it.

package tuple_test

import (
	"testing"

	"repro/internal/tuple"
)

// A string slot rebuilt as a view costs no allocation once the scratch
// has room; a copying decode gives it one, as it gives a verbatim string
// its copy.
func TestStringSlotRebuildAllocations(t *testing.T) {
	s, rec := slotRecord(t, "item-001812")
	scratch := make([]byte, 0, 64)
	dst := make(tuple.Row, 1)
	if a := testing.AllocsPerRun(100, func() {
		_, _, _ = tuple.DecodeAlias(dst, s, rec, nil, &scratch)
		scratch = scratch[:0]
	}); a != 0 {
		t.Errorf("DecodeAlias with scratch allocated %.0f times", a)
	}
	if a := testing.AllocsPerRun(100, func() { _, _, _ = tuple.DecodeFields(dst, s, rec, nil) }); a != 1 {
		t.Errorf("DecodeFields rebuilt the string in %.0f allocations, want 1", a)
	}
}
