package lib

// Used is called by package user.
func Used() int { return Limit }

// Limit is used by this package's own non-test code.
const Limit = 3

func Dead() int { return 2 } // want "lib.Dead is exported but only its own tests use it"

// Countdown calls itself, which is not a use from elsewhere.
func Countdown(n int) int { // want "lib.Countdown is exported"
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

var DeadVar = 1 // want "lib.DeadVar is exported"

// Unused is named only by its own methods' receivers.
type Unused struct{} // want "lib.Unused is exported"

func (Unused) helper() {}

// ByKey's Len, Less and Swap are reached through sort.Interface, which
// package user mentions by calling sort.Sort.
type ByKey []int

func (b ByKey) Len() int           { return len(b) }
func (b ByKey) Less(i, j int) bool { return b[i] < b[j] }
func (b ByKey) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func (b ByKey) Sum() int { return len(b) } // want "lib.ByKey.Sum is exported"

// Hook is allowlisted (the golden test adds it to exportAllow).
func Hook() {}

// OnlyUserTest is used by package user's test alone: another package's
// test is a caller.
func OnlyUserTest() int { return 4 }

// Selected is selected by name in package user's test.
func (b ByKey) Selected() int { return 5 }
