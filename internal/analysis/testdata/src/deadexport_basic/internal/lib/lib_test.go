package lib

import "testing"

func TestLib(t *testing.T) {
	_ = Dead() + Countdown(1) + DeadVar + ByKey{}.Sum()
	Unused{}.helper()
	Hook()
}
