package lib

import "testing"

func TestLib(t *testing.T) {
	_ = Dead() + Countdown(1) + DeadVar + ByKey{}.Sum() + ByKey{}.Query() + deadHelper()
	Unused{}.helper()
}
