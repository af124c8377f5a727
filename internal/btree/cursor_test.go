package btree

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func collectCursor(t *testing.T, c *Cursor) []uint64 {
	t.Helper()
	var got []uint64
	for c.Next() {
		if binary.BigEndian.Uint64(c.Key()) != c.Value() {
			t.Fatalf("key/value mismatch: key=%d value=%d", binary.BigEndian.Uint64(c.Key()), c.Value())
		}
		got = append(got, c.Value())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	return got
}

func TestCursorForwardFullAndBounded(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := tr.Insert(intKey(i), uint64(i)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	c := tr.NewCursor(nil, nil)
	defer c.Close()
	got := collectCursor(t, c)
	if len(got) != n {
		t.Fatalf("full scan: %d keys, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("full scan out of order at %d: %d", i, v)
		}
	}
	// Bounded: [100, 250).
	c = tr.NewCursor(intKey(100), intKey(250))
	defer c.Close()
	got = collectCursor(t, c)
	if len(got) != 150 || got[0] != 100 || got[len(got)-1] != 249 {
		t.Fatalf("bounded scan: len=%d first=%v last=%v", len(got), got[0], got[len(got)-1])
	}
}

func TestCursorReverse(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	const n = 1500
	for i := 0; i < n; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	c := tr.NewCursor(nil, nil, Reverse())
	defer c.Close()
	got := collectCursor(t, c)
	if len(got) != n {
		t.Fatalf("reverse scan: %d keys, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(n-1-i) {
			t.Fatalf("reverse scan out of order at %d: %d", i, v)
		}
	}
	// Bounded reverse: [100, 250) served as 249..100.
	c = tr.NewCursor(intKey(100), intKey(250), Reverse())
	defer c.Close()
	got = collectCursor(t, c)
	if len(got) != 150 || got[0] != 249 || got[len(got)-1] != 100 {
		t.Fatalf("bounded reverse: len=%d first=%v last=%v", len(got), got[0], got[len(got)-1])
	}
}

func TestCursorReverseAcrossEmptiedLeaves(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	const n = 1200
	for i := 0; i < n; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	// Empty a wide middle band so several leaves hold zero keys: the
	// targeted reverse descent lands on them and must fall back to the
	// chain walk. No node merging means the leaves stay in the chain.
	for i := 200; i < 1000; i++ {
		if _, err := tr.Delete(intKey(i)); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	c := tr.NewCursor(nil, nil, Reverse())
	defer c.Close()
	got := collectCursor(t, c)
	if len(got) != 400 {
		t.Fatalf("reverse over gap: %d keys, want 400", len(got))
	}
	for i := 0; i < 200; i++ {
		if got[i] != uint64(n-1-i) {
			t.Fatalf("upper band wrong at %d: %d", i, got[i])
		}
		if got[200+i] != uint64(199-i) {
			t.Fatalf("lower band wrong at %d: %d", i, got[200+i])
		}
	}
}

func TestCursorOneFetchPerLeaf(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.LeafPages < 10 {
		t.Fatalf("want a multi-leaf tree, got %d leaves", st.LeafPages)
	}
	c := tr.NewCursor(nil, nil)
	defer c.Close()
	if got := collectCursor(t, c); len(got) != n {
		t.Fatalf("scanned %d keys", len(got))
	}
	if c.LeafFetches() != int64(st.LeafPages) {
		t.Errorf("LeafFetches = %d, want %d (one per leaf, no re-descent)",
			c.LeafFetches(), st.LeafPages)
	}
}

func TestCursorResumableAfterClose(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	c := tr.NewCursor(nil, nil)
	var got []uint64
	for i := 0; i < 300 && c.Next(); i++ {
		got = append(got, c.Value())
	}
	c.Close() // releases the pin mid-scan
	c.Close() // double close is a no-op
	if pins := tr.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("after Close: %d pinned frames, want 0", pins)
	}
	for c.Next() { // resumes from the last served key via a fresh descent
		got = append(got, c.Value())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	if len(got) != n {
		t.Fatalf("resumed scan served %d keys, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("resumed scan out of order at %d: %d", i, v)
		}
	}
}

func TestCursorPinAccounting(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	for i := 0; i < 2000; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	c := tr.NewCursor(nil, nil)
	if !c.Next() {
		t.Fatal("empty cursor")
	}
	if pins := tr.Pool().PinnedFrames(); pins != 1 {
		t.Fatalf("mid-scan: %d pinned frames, want exactly the cursor's leaf", pins)
	}
	c.Close()
	if pins := tr.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("after Close: %d pinned frames, want 0", pins)
	}
	// Exhaustion must also release the pin without an explicit Close.
	c2 := tr.NewCursor(intKey(1990), nil)
	for c2.Next() {
	}
	if pins := tr.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("after exhaustion: %d pinned frames, want 0", pins)
	}
}

// TestCursorSurvivesLeafSplit is the scan-vs-split regression test: a
// leaf splitting underneath a paused cursor moves upper-half keys to a
// new right sibling. The pre-cursor Scan blocked writers for its whole
// lifetime, so this could only bite once scans stopped holding the tree
// lock; the cursor must re-validate bounds on each leaf and serve every
// pre-existing key exactly once.
func TestCursorSurvivesLeafSplit(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	// Sparse keys leave room to force splits mid-range later.
	const n = 400
	for i := 0; i < n; i++ {
		tr.Insert(intKey(i*10), uint64(i*10))
	}
	c := tr.NewCursor(nil, nil)
	defer c.Close()
	var got []uint64
	for i := 0; i < 5; i++ {
		if !c.Next() {
			t.Fatal("cursor ended early")
		}
		got = append(got, c.Value())
	}
	// Split the cursor's current leaf (and several after it) by packing
	// new keys immediately ahead of the scan position.
	at := int(got[len(got)-1])
	for i := 1; i <= 200; i++ {
		if _, err := tr.Insert(intKey(at+i), uint64(at+i)); err != nil {
			t.Fatalf("Insert during scan: %v", err)
		}
	}
	seen := map[uint64]int{}
	for c.Next() {
		seen[c.Value()]++
		got = append(got, c.Value())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	// Every pre-existing key must appear exactly once, in order.
	for i := 0; i < n; i++ {
		k := uint64(i * 10)
		if k <= got[4] {
			continue // served before the splits
		}
		if seen[k] != 1 {
			t.Errorf("key %d served %d times after split, want 1", k, seen[k])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("out of order after split: got[%d]=%d ≤ got[%d]=%d", i, got[i], i-1, got[i-1])
		}
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestCursorEmptyAndSingleLeaf(t *testing.T) {
	tr := newTestTree(t, 512, 64)
	c := tr.NewCursor(nil, nil)
	if c.Next() {
		t.Fatal("empty tree served a key")
	}
	if c.Err() != nil {
		t.Fatalf("empty tree error: %v", c.Err())
	}
	c = tr.NewCursor(nil, nil, Reverse())
	if c.Next() {
		t.Fatal("empty tree served a key in reverse")
	}
	tr.Insert([]byte("only"), 7)
	c = tr.NewCursor(nil, nil)
	defer c.Close()
	if !c.Next() || !bytes.Equal(c.Key(), []byte("only")) || c.Value() != 7 {
		t.Fatalf("single-key scan: key=%q value=%d", c.Key(), c.Value())
	}
	if c.Next() {
		t.Fatal("single-key scan served a second key")
	}
}

// visitFunc adapts a function to EntryVisitor.
type visitFunc func(l *Leaf, pos int)

func (f visitFunc) VisitEntry(l *Leaf, pos int) { f(l, pos) }

func TestCursorEntryVisitor(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	const n = 500
	for i := 0; i < n; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	visits := 0
	c := tr.NewCursor(nil, nil, WithEntryVisitor(visitFunc(func(l *Leaf, pos int) {
		if l.Exclusive() {
			t.Error("entry visitor must see a shared latch")
		}
		if l.ValueAt(pos) != uint64(visits) {
			t.Errorf("visitor pos mismatch: %d vs %d", l.ValueAt(pos), visits)
		}
		visits++
	})))
	defer c.Close()
	if got := collectCursor(t, c); len(got) != n || visits != n {
		t.Fatalf("served %d, visited %d, want %d", len(got), visits, n)
	}
}

// TestReverseCursorSurvivesLeafSplit mirrors TestCursorSurvivesLeafSplit
// for the descending direction: a split of the paused cursor's pinned
// leaf moves keys below the scan position into a right sibling the
// reverse walk can't reach by going left. The version check must force
// a fresh descent so no pre-existing key is skipped.
func TestReverseCursorSurvivesLeafSplit(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	const n = 400
	for i := 0; i < n; i++ {
		tr.Insert(intKey(i*10), uint64(i*10))
	}
	c := tr.NewCursor(nil, nil, Reverse())
	defer c.Close()
	var got []uint64
	for i := 0; i < 5; i++ {
		if !c.Next() {
			t.Fatal("cursor ended early")
		}
		got = append(got, c.Value())
	}
	// Split the pinned leaf by packing keys immediately below the scan
	// position — the keys the reverse walk is about to serve.
	at := int(got[len(got)-1])
	for i := 1; i <= 200; i++ {
		if _, err := tr.Insert(intKey(at-i), uint64(at-i)); err != nil {
			t.Fatalf("Insert during reverse scan: %v", err)
		}
	}
	seen := map[uint64]int{}
	for c.Next() {
		if len(got) > 0 && c.Value() >= got[len(got)-1] {
			t.Fatalf("out of order: %d after %d", c.Value(), got[len(got)-1])
		}
		seen[c.Value()]++
		got = append(got, c.Value())
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor error: %v", err)
	}
	for i := 0; i < n; i++ {
		k := uint64(i * 10)
		if k >= got[4] {
			continue // served before the splits
		}
		if seen[k] != 1 {
			t.Errorf("key %d served %d times after split, want 1", k, seen[k])
		}
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}
