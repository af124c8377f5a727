package user

import (
	"sort"

	"deadexport_basic/internal/lib"
)

// Sorted sorts xs through sort.Interface.
func Sorted(xs []int) []int {
	sort.Sort(lib.ByKey(xs))
	return xs
}

// Count calls lib.Used.
func Count() int { return lib.Used() }

// Paint returns a lib.Color.
func Paint() lib.Color { return lib.Color(1) }

// NotJudged has no caller, but user is not under internal/.
func NotJudged() {}
