package core

import (
	"os"
	"testing"
)

// Every test of this package runs with the pipelines' scratch poisoned:
// a pre-image value or carved key that outlives its trip corrupts a row,
// a key or an undo record, and the integrity checks the write-path,
// transaction and crash tests already make fail on it.
func TestMain(m *testing.M) {
	PoisonScratch(true)
	os.Exit(m.Run())
}
