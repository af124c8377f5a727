package user

import (
	"testing"

	"deadexport_basic/internal/lib"
)

// finder's Query shares its name with lib.ByKey.Query, which this call
// does not use.
type finder struct{}

func (finder) Query() int { return 0 }

func TestUser(t *testing.T) {
	_ = lib.OnlyUserTest() + lib.ByKey(nil).Selected() + finder{}.Query()
}
