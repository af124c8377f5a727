//go:build !race

package btree

import "testing"

// TestNonSplittingUpsertsAllocateNothing: a write that lands in a leaf
// with room — a new value for an existing key, or a fresh key — takes
// the optimistic descent (one exclusive leaf latch) and allocates
// nothing. Only a split allocates, so a count here repeats where the
// write path's throughput would not. Built out under -race, whose
// instrumentation moves allocation counts.
func TestNonSplittingUpsertsAllocateNothing(t *testing.T) {
	tr := newTestTree(t, 4096, 64)
	// Even keys into one leaf; the odd ones between them arrive later.
	const n = 100
	keys := make([][]byte, 2*n)
	for i := range keys {
		keys[i] = intKey(i)
	}
	for i := 0; i < 2*n; i += 2 {
		if _, err := tr.Insert(keys[i], uint64(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	retries := tr.LatchRetries()

	i := 0 // even: the keys already in the tree
	overwrite := func() {
		if _, err := tr.Insert(keys[i%(2*n)], uint64(i)); err != nil {
			t.Fatalf("overwrite: %v", err)
		}
		i += 2
	}
	if allocs := testing.AllocsPerRun(500, overwrite); allocs != 0 {
		t.Errorf("overwriting an existing key: %.2f allocs per write, want 0", allocs)
	}

	odd := 1
	insert := func() {
		if _, err := tr.Insert(keys[odd], uint64(odd)); err != nil {
			t.Fatalf("insert: %v", err)
		}
		odd += 2
	}
	if allocs := testing.AllocsPerRun(n-1, insert); allocs != 0 {
		t.Errorf("inserting a fresh key into a leaf with room: %.2f allocs per write, want 0", allocs)
	}

	if h, r := tr.Height(), tr.LatchRetries()-retries; h != 1 || r != 0 {
		t.Fatalf("height %d, %d pessimistic descents: a leaf split, so the writes above were not the non-splitting case", h, r)
	}
	if got := tr.Len(); got != 2*n {
		t.Errorf("Len = %d, want %d", got, 2*n)
	}
}
