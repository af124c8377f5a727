package btree

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentWritersMultiLevelSplits drives enough parallel inserts
// through small pages that split propagation repeatedly climbs several
// levels — including root growth — while other writers are mid-descent.
// Run under -race in CI; afterwards every key must be present, the
// chain symmetric, and no pins leaked.
func TestConcurrentWritersMultiLevelSplits(t *testing.T) {
	tr := newTestTree(t, 512, 2048)
	const (
		writers   = 8
		perWriter = 3000
	)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Interleaved key spaces (k ≡ w mod writers): every writer
			// hits every leaf region, maximizing latch contention and
			// concurrent splits of the same parents.
			for i := 0; i < perWriter; i++ {
				k := intKey(i*writers + w)
				ins, err := tr.Insert(k, uint64(i*writers+w))
				if err != nil {
					errCh <- err
					return
				}
				if !ins {
					errCh <- fmt.Errorf("key %d reported duplicate", i*writers+w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	const total = writers * perWriter
	if tr.Len() != total {
		t.Errorf("Len = %d, want %d", tr.Len(), total)
	}
	if tr.Height() < 3 {
		t.Errorf("height = %d; want ≥3 so split propagation crossed levels", tr.Height())
	}
	for i := 0; i < total; i += 997 {
		v, found, err := tr.Search(intKey(i))
		if err != nil || !found || v != uint64(i) {
			t.Fatalf("Search(%d) = %d,%v,%v", i, v, found, err)
		}
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	if pins := tr.pool.PinnedFrames(); pins != 0 {
		t.Errorf("%d pinned frames after quiesce, want 0", pins)
	}
	if tr.LatchRetries() == 0 {
		t.Error("expected some optimistic descents to fall back on split-heavy ingest")
	}
}

// TestConcurrentWritersMixedOps runs per-goroutine insert/upsert/delete
// churn over disjoint key spaces, then validates each goroutine's final
// model. Deletes never restructure, so this exercises the interleaving
// of leaf-local writes with neighbors' split propagation.
func TestConcurrentWritersMixedOps(t *testing.T) {
	tr := newTestTree(t, 512, 2048)
	const (
		writers = 6
		space   = 4000
		ops     = 12000
	)
	models := make([]map[int]uint64, writers)
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			model := map[int]uint64{}
			models[w] = model
			for op := 0; op < ops; op++ {
				k := w*space + rng.Intn(space)
				switch rng.Intn(3) {
				case 0, 1:
					v := rng.Uint64()
					if _, err := tr.Insert(intKey(k), v); err != nil {
						errCh <- err
						return
					}
					model[k] = v
				case 2:
					found, err := tr.Delete(intKey(k))
					if err != nil {
						errCh <- err
						return
					}
					if _, want := model[k]; found != want {
						errCh <- fmt.Errorf("Delete(%d) found=%v want=%v", k, found, want)
						return
					}
					delete(model, k)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var total int64
	for w, model := range models {
		total += int64(len(model))
		for k, want := range model {
			v, found, err := tr.Search(intKey(k))
			if err != nil || !found || v != want {
				t.Fatalf("writer %d key %d: Search = %d,%v,%v want %d", w, k, v, found, err, want)
			}
		}
	}
	if tr.Len() != total {
		t.Errorf("Len = %d, want %d", tr.Len(), total)
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

// TestCrabbingVsCursorInterleaving runs forward and reverse scans over
// a stable key band while writers concurrently split leaves inside it
// (inserting and deleting gap keys). Every stable key must be served
// exactly once per pass, in order, in both directions — the
// crabbing-vs-cursor regression the version counters exist for.
func TestCrabbingVsCursorInterleaving(t *testing.T) {
	tr := newTestTree(t, 512, 2048)
	const stable = 1000
	for i := 0; i < stable; i++ {
		if _, err := tr.Insert(intKey(i*10), uint64(i*10)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	var writerWG, scanWG sync.WaitGroup
	errCh := make(chan error, 8)
	done := make(chan struct{})

	// Writers churn gap keys between the stable ones, forcing splits of
	// exactly the leaves the scans are traversing.
	for w := 0; w < 2; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-done:
					return
				default:
				}
				base := rng.Intn(stable) * 10
				off := 1 + rng.Intn(9)
				if rng.Intn(2) == 0 {
					if _, err := tr.Insert(intKey(base+off), uint64(base+off)); err != nil {
						errCh <- err
						return
					}
				} else {
					if _, err := tr.Delete(intKey(base + off)); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}

	scan := func(reverse bool) error {
		var opts []CursorOption
		if reverse {
			opts = append(opts, Reverse())
		}
		c := tr.NewCursor(nil, nil, opts...)
		defer c.Close()
		next := 0
		if reverse {
			next = stable - 1
		}
		for c.Next() {
			v := c.Value()
			if v%10 != 0 {
				continue // writer-churned gap key; presence is incidental
			}
			want := uint64(next * 10)
			if v != want {
				return fmt.Errorf("reverse=%v: stable key %d served, want %d", reverse, v, want)
			}
			if reverse {
				next--
			} else {
				next++
			}
		}
		if c.Err() != nil {
			return c.Err()
		}
		if (reverse && next != -1) || (!reverse && next != stable) {
			return fmt.Errorf("reverse=%v: scan stopped at stable index %d", reverse, next)
		}
		return nil
	}
	for _, reverse := range []bool{false, true} {
		reverse := reverse
		scanWG.Add(1)
		go func() {
			defer scanWG.Done()
			for round := 0; round < 15; round++ {
				if err := scan(reverse); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}

	scanWG.Wait()
	close(done)
	writerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

// TestReverseScanFetchSymmetry asserts ROADMAP item #3 is gone: a
// quiescent reverse scan costs exactly one leaf fetch per leaf, the
// same as forward (left-sibling links instead of one descent per leaf).
func TestReverseScanFetchSymmetry(t *testing.T) {
	tr := newTestTree(t, 512, 1024)
	const n = 3000
	for i := 0; i < n; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	fwd := tr.NewCursor(nil, nil)
	defer fwd.Close()
	if got := collectCursor(t, fwd); len(got) != n {
		t.Fatalf("forward scanned %d", len(got))
	}
	rev := tr.NewCursor(nil, nil, Reverse())
	defer rev.Close()
	if got := collectCursor(t, rev); len(got) != n {
		t.Fatalf("reverse scanned %d", len(got))
	}
	if fwd.LeafFetches() != int64(st.LeafPages) {
		t.Errorf("forward LeafFetches = %d, want %d", fwd.LeafFetches(), st.LeafPages)
	}
	if rev.LeafFetches() != fwd.LeafFetches() {
		t.Errorf("reverse LeafFetches = %d, want %d (symmetry with forward)",
			rev.LeafFetches(), fwd.LeafFetches())
	}
}

// TestLeftLinksSurviveSplitChurn checks the doubly linked leaf chain
// stays mirror-consistent through randomized split-heavy churn.
func TestLeftLinksSurviveSplitChurn(t *testing.T) {
	tr := newTestTree(t, 512, 2048)
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 30000; op++ {
		k := rng.Intn(20000)
		if rng.Intn(4) == 0 {
			if _, err := tr.Delete(intKey(k)); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		} else {
			if _, err := tr.Insert(intKey(k), uint64(k)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
	}
	// CheckIntegrity verifies left links mirror right links.
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

// TestPessimisticInsertStaleSeparatorBound: short keys split a tree of
// ~100-byte keys three or more levels deep. Separators pushed up are
// copies of the long keys as well as the short ones, and the safe-node
// rule judges every internal node by the one key bound, so there is no
// tighter bound left to go stale: every split chain must settle inside
// the retained latch path (a chain that escaped it would install a
// non-root node as a new root) and leave every key findable.
func TestPessimisticInsertStaleSeparatorBound(t *testing.T) {
	tr := newTestTree(t, 512, 4096)
	rng := rand.New(rand.NewSource(5))
	model := map[string]uint64{}
	for i := 0; i < 2000; i++ {
		k := make([]byte, 90+rng.Intn(20))
		rng.Read(k)
		if _, err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("long Insert: %v", err)
		}
		model[string(k)] = uint64(i)
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d; want ≥3 so stale-bound splits propagate levels", tr.Height())
	}
	for i := 0; i < 4000; i++ {
		k := make([]byte, 8)
		rng.Read(k)
		if _, err := tr.Insert(k, uint64(i)); err != nil {
			t.Fatalf("short Insert %d: %v", i, err)
		}
		model[string(k)] = uint64(i)
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	for k, want := range model {
		v, found, err := tr.Search([]byte(k))
		if err != nil || !found || v != want {
			t.Fatalf("Search(%x) = %d,%v,%v want %d", k, v, found, err, want)
		}
	}
	if tr.Len() != int64(len(model)) {
		t.Errorf("Len = %d, want %d", tr.Len(), len(model))
	}
}
