package btree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// runOf builds a sorted upsert run over the given ints.
func runOf(keys []int) []RunEntry {
	entries := make([]RunEntry, len(keys))
	for i, k := range keys {
		entries[i] = RunEntry{Key: intKey(k), Value: uint64(k)}
	}
	return entries
}

func TestApplyRunBasic(t *testing.T) {
	tr := newTestTree(t, 512, 2048)
	// Preload odds one at a time; batch in the evens plus overwrites of
	// some odds, then delete a stripe.
	for i := 1; i < 2000; i += 2 {
		if _, err := tr.Insert(intKey(i), uint64(i)); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	var entries []RunEntry
	for i := 0; i < 2000; i++ {
		switch {
		case i%2 == 0:
			entries = append(entries, RunEntry{Key: intKey(i), Value: uint64(i)})
		case i%10 == 1:
			entries = append(entries, RunEntry{Key: intKey(i), Value: uint64(i + 1_000_000)})
		case i%10 == 3:
			entries = append(entries, RunEntry{Key: intKey(i), Op: RunDelete})
		}
	}
	st, err := tr.ApplyRun(entries)
	if err != nil {
		t.Fatalf("ApplyRun: %v", err)
	}
	if st.Inserted != 1000 {
		t.Errorf("Inserted = %d, want 1000", st.Inserted)
	}
	if st.Updated != 200 {
		t.Errorf("Updated = %d, want 200", st.Updated)
	}
	if st.Deleted != 200 {
		t.Errorf("Deleted = %d, want 200", st.Deleted)
	}
	if st.Descents >= len(entries) {
		t.Errorf("Descents = %d for %d entries — no leaf grouping happened", st.Descents, len(entries))
	}
	for _, e := range entries {
		want := e.Op == RunDelete || intVal(e.Key)%2 == 1
		if e.Existed != want {
			t.Errorf("key %d: Existed = %v, want %v", intVal(e.Key), e.Existed, want)
		}
	}
	if got, want := tr.Len(), int64(1000+1000-200); got != want {
		t.Errorf("Len = %d, want %d", got, want)
	}
	for i := 0; i < 2000; i++ {
		v, found, err := tr.Search(intKey(i))
		if err != nil {
			t.Fatalf("Search %d: %v", i, err)
		}
		switch {
		case i%2 == 0:
			if !found || v != uint64(i) {
				t.Fatalf("even key %d: found=%v v=%d", i, found, v)
			}
		case i%10 == 1:
			if !found || v != uint64(i+1_000_000) {
				t.Fatalf("updated key %d: found=%v v=%d", i, found, v)
			}
		case i%10 == 3:
			if found {
				t.Fatalf("deleted key %d still present", i)
			}
		default:
			if !found || v != uint64(i) {
				t.Fatalf("untouched key %d: found=%v v=%d", i, found, v)
			}
		}
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity: %v", err)
	}
}

// TestApplyRunDeleteIf: a conditional delete removes its key only while
// the key holds the entry's value. An absent key is a no-op; a key
// holding another value stays, and Existed/Prev report that value.
func TestApplyRunDeleteIf(t *testing.T) {
	tr := newTestTree(t, 512, 64)
	for _, k := range []int{2, 3} {
		if _, err := tr.Insert(intKey(k), uint64(k)); err != nil {
			t.Fatalf("Insert %d: %v", k, err)
		}
	}
	entries := []RunEntry{
		{Key: intKey(1), Value: 1, Op: RunDeleteIf}, // absent
		{Key: intKey(2), Value: 7, Op: RunDeleteIf}, // holds another value
		{Key: intKey(3), Value: 3, Op: RunDeleteIf}, // holds this value
	}
	st, err := tr.ApplyRun(entries)
	if err != nil {
		t.Fatalf("ApplyRun: %v", err)
	}
	if st.Deleted != 1 {
		t.Errorf("Deleted = %d, want 1", st.Deleted)
	}
	for i, want := range []struct {
		existed bool
		prev    uint64
		found   bool
	}{{false, 0, false}, {true, 2, true}, {true, 3, false}} {
		e := entries[i]
		if e.Existed != want.existed || e.Prev != want.prev {
			t.Errorf("key %d: Existed=%v Prev=%d, want %v %d", intVal(e.Key), e.Existed, e.Prev, want.existed, want.prev)
		}
		v, found, err := tr.Search(e.Key)
		if err != nil {
			t.Fatal(err)
		}
		if found != want.found || (found && v != want.prev) {
			t.Errorf("key %d after the run: found=%v v=%d, want found=%v", intVal(e.Key), found, v, want.found)
		}
	}
	if got := tr.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
}

func intVal(key []byte) int {
	v := 0
	for _, b := range key {
		v = v<<8 | int(b)
	}
	return v
}

func TestApplyRunValidation(t *testing.T) {
	tr := newTestTree(t, 512, 256)
	if _, err := tr.ApplyRun([]RunEntry{{Key: intKey(2)}, {Key: intKey(1)}}); err == nil {
		t.Error("unsorted run accepted")
	}
	if _, err := tr.ApplyRun([]RunEntry{{Key: nil}}); err == nil {
		t.Error("empty key accepted")
	}
	long := make([]byte, tr.maxKeyLen()+1)
	long[0] = 1
	if _, err := tr.ApplyRun([]RunEntry{{Key: long}}); err == nil {
		t.Error("oversized key accepted")
	}
	if tr.Len() != 0 {
		t.Errorf("failed runs mutated the tree: Len = %d", tr.Len())
	}
	if st, err := tr.ApplyRun(nil); err != nil || st != (RunStats{}) {
		t.Errorf("empty run: %+v, %v", st, err)
	}
}

// TestApplyRunSplitPropagation is the leaf-run split test: a single run
// dense enough that applying it splits leaves repeatedly mid-run — with
// small pages, up through internal levels and root growth — while the
// rest of the run keeps applying. Every key must land, the sibling
// chain stay symmetric, and the run still amortize descents.
func TestApplyRunSplitPropagation(t *testing.T) {
	tr := newTestTree(t, 512, 4096)
	// Preload a sparse stripe so the run's inserts interleave with
	// existing keys on every leaf.
	for i := 0; i < 20000; i += 20 {
		if _, err := tr.Insert(intKey(i), uint64(i)); err != nil {
			t.Fatalf("preload %d: %v", i, err)
		}
	}
	var entries []RunEntry
	for i := 0; i < 20000; i++ {
		if i%20 != 0 {
			entries = append(entries, RunEntry{Key: intKey(i), Value: uint64(i)})
		}
	}
	st, err := tr.ApplyRun(entries)
	if err != nil {
		t.Fatalf("ApplyRun: %v", err)
	}
	if st.Inserted != len(entries) {
		t.Errorf("Inserted = %d, want %d", st.Inserted, len(entries))
	}
	if st.Splits == 0 {
		t.Error("run dense enough to split paid no splits — test is not exercising propagation")
	}
	if st.Descents >= len(entries)/2 {
		t.Errorf("Descents = %d for %d entries — grouping collapsed", st.Descents, len(entries))
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d, want ≥3 so splits propagated across levels", tr.Height())
	}
	if tr.Len() != 20000 {
		t.Errorf("Len = %d, want 20000", tr.Len())
	}
	for i := 0; i < 20000; i++ {
		v, found, err := tr.Search(intKey(i))
		if err != nil || !found || v != uint64(i) {
			t.Fatalf("Search(%d) = %d,%v,%v", i, v, found, err)
		}
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity: %v", err)
	}
	if pinned := tr.pool.PinnedFrames(); pinned != 0 {
		t.Errorf("%d frames still pinned after the run", pinned)
	}
}

// TestApplyRunConcurrent storms ApplyRun from 8 goroutines — disjoint
// interleaved key stripes, so every run crosses every leaf region —
// against concurrent point readers. Run under -race in CI.
func TestApplyRunConcurrent(t *testing.T) {
	tr := newTestTree(t, 512, 4096)
	const (
		writers = 8
		batches = 30
		perRun  = 100
	)
	var writersWG, readerWG sync.WaitGroup
	errCh := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for b := 0; b < batches; b++ {
				keys := make([]int, perRun)
				for i := range keys {
					keys[i] = (b*perRun+i)*writers + w
				}
				if _, err := tr.ApplyRun(runOf(keys)); err != nil {
					errCh <- fmt.Errorf("writer %d batch %d: %w", w, b, err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := rng.Intn(writers * batches * perRun)
			v, found, err := tr.Search(intKey(k))
			if err != nil {
				errCh <- err
				return
			}
			if found && v != uint64(k) {
				errCh <- fmt.Errorf("key %d read value %d", k, v)
				return
			}
		}
	}()
	writersWG.Wait()
	close(stop)
	readerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	total := int64(writers * batches * perRun)
	if tr.Len() != total {
		t.Errorf("Len = %d, want %d", tr.Len(), total)
	}
	for i := 0; i < int(total); i += 131 {
		v, found, err := tr.Search(intKey(i))
		if err != nil || !found || v != uint64(i) {
			t.Fatalf("Search(%d) = %d,%v,%v", i, v, found, err)
		}
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity: %v", err)
	}
}
