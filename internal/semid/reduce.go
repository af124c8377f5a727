package semid

import (
	"fmt"

	"repro/internal/tuple"
)

// ReductionCheck inspects a schema + workload description and reports
// ID fields that can be dropped per Section 4.2: "ID fields
// representing uniqueness can be eliminated and the tuple's physical
// address can be used as a proxy", and "if there is a functional
// dependency X → Y and the semantic properties of Y can be directly
// inferred from X, then Y can be dropped".
type ReductionCheck struct {
	// Field is the candidate for elimination.
	Field string
	// Reason explains the proxy.
	Reason string
	// SavedBitsPerRow is the storage reclaimed.
	SavedBitsPerRow int
}

// FindReducible returns the ID-like fields of a schema that a proxy can
// replace. uniqueOnly lists fields the application uses purely for
// uniqueness (candidate → RID proxy); derived maps field → determinant
// for known functional dependencies (candidate → dropped, value
// inferred from determinant).
func FindReducible(schema *tuple.Schema, uniqueOnly []string, derived map[string]string) ([]ReductionCheck, error) {
	var out []ReductionCheck
	for _, name := range uniqueOnly {
		pos := schema.Index(name)
		if pos < 0 {
			return nil, fmt.Errorf("semid: field %q not in schema", name)
		}
		f := schema.Field(pos)
		out = append(out, ReductionCheck{
			Field:           name,
			Reason:          "uniqueness-only ID: use the tuple's physical address (RID) as proxy",
			SavedBitsPerRow: f.DeclaredBits(),
		})
	}
	for name, det := range derived {
		pos := schema.Index(name)
		if pos < 0 {
			return nil, fmt.Errorf("semid: field %q not in schema", name)
		}
		if schema.Index(det) < 0 {
			return nil, fmt.Errorf("semid: determinant %q not in schema", det)
		}
		f := schema.Field(pos)
		out = append(out, ReductionCheck{
			Field:           name,
			Reason:          fmt.Sprintf("functional dependency %s → %s: value inferable", det, name),
			SavedBitsPerRow: f.DeclaredBits(),
		})
	}
	return out, nil
}
