package user

import (
	"testing"

	"deadexport_basic/internal/lib"
)

func TestUser(t *testing.T) {
	_ = lib.OnlyUserTest() + lib.ByKey(nil).Selected()
}
