package lib

// Used is called by package user.
func Used() int { return Limit + helperUsed() }

// Limit is used by this package's own non-test code.
const Limit = 3

func Dead() int { return 2 } // want "lib.Dead has no use outside its own package's tests"

// Countdown calls itself, which is not a use from elsewhere.
func Countdown(n int) int { // want "lib.Countdown has no use"
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

var DeadVar = 1 // want "lib.DeadVar has no use"

// Unused is named only by its own methods' receivers.
type Unused struct{} // want "lib.Unused has no use"

// helper is unexported, and only this package's tests call it.
func (Unused) helper() {} // want "lib.Unused.helper has no use"

// deadHelper is unexported, and only this package's tests call it.
func deadHelper() int { return 1 } // want "lib.deadHelper has no use"

// helperUsed is unexported, and Used calls it.
func helperUsed() int { return 0 }

// ByKey's Len, Less and Swap are reached through sort.Interface, which
// package user mentions by calling sort.Sort.
type ByKey []int

func (b ByKey) Len() int           { return len(b) }
func (b ByKey) Less(i, j int) bool { return b[i] < b[j] }
func (b ByKey) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func (b ByKey) Sum() int { return len(b) } // want "lib.ByKey.Sum has no use"

// Query is called by this package's test alone. Package user's test
// calls a Query of a type of its own, which is no use of this one.
func (b ByKey) Query() int { return 6 } // want "lib.ByKey.Query has no use"

// Selected is called on a ByKey in package user's test.
func (b ByKey) Selected() int { return 5 }

// Color is returned by package user. Nothing names its String, but fmt
// calls it through fmt.Stringer, so it counts as used.
type Color int

func (c Color) String() string { return "red" }

// OnlyUserTest is used by package user's test alone: another package's
// test is a caller.
func OnlyUserTest() int { return 4 }

// OnlyUserXTest is used by package user's external test alone, which
// counts as well.
func OnlyUserXTest() int { return 7 }

// OnlyOwnXTest is used by this package's external test alone: that is
// still this package's own test.
func OnlyOwnXTest() int { return 8 } // want "lib.OnlyOwnXTest has no use"
