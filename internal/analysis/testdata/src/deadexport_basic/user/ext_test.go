package user_test

import (
	"testing"

	"deadexport_basic/internal/lib"
	"deadexport_basic/user"
)

func TestExt(t *testing.T) {
	_ = lib.OnlyUserXTest() + user.Count()
}
