package lib_test

import (
	"testing"

	"deadexport_basic/internal/lib"
)

// An external test package in lib's own directory is still lib's own
// test: these uses do not count.
func TestX(t *testing.T) {
	_ = lib.Dead() + lib.ByKey{}.Sum() + lib.OnlyOwnXTest()
}
