package idxcache

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/btree"
)

// TestCacheContentionNeverCorrupts hammers one leaf from many
// goroutines doing the full cache protocol (Prepare, Lookup, Insert)
// concurrently with index churn. The §2.1.3 give-up rule means some
// visits run with only a shared latch — those must skip cache writes,
// and nothing may ever corrupt the index or return a payload for the
// wrong rid.
//
// What the hammer exercises is fixed, not left to the scheduler. Two
// orderings used to leave it exercising nothing (10 of 1,200 runs, four
// test processes on two CPUs):
//
//   - The churn paused one insert short of splitting the readers' leaf,
//     with less room left than one cache entry, and the readers ran in
//     that pause: every Insert found no slot (all lookups missed, no
//     inserts, one page initialisation). An artifact of which goroutine
//     ran first.
//   - The readers' shared visits overlapped from the first to the last,
//     so no visit ever took the latch exclusively and the page's cache
//     was never even initialised (every visit skipped). The give-up rule
//     working as specified: a visit never waits for the latch.
//
// So a serial pass warms the cache first, and the churn starts only once
// every reader has made one visit: those visits find a usable, filled
// cache whatever latch they hold.
func TestCacheContentionNeverCorrupts(t *testing.T) {
	const keys, readers = 50, 8
	tr := newCacheTree(t, 4096)
	c := mustCache(t, Config{PayloadSize: 16, PredLogLimit: 128, Seed: 1})
	for i := 0; i < keys; i++ {
		if _, err := tr.Insert(k64(i), uint64(i+1)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	// visit runs the protocol for key i: a hit must carry i's payload, a
	// miss installs it.
	visit := func(i int) error {
		rid := uint64(i + 1)
		var wrong bool
		err := tr.VisitLeaf(k64(i), func(l *btree.Leaf) {
			if !c.Prepare(l) {
				return // non-exclusive visit over invalid cache: skip
			}
			if got, ok := c.Lookup(l, rid); ok {
				wrong = binary.LittleEndian.Uint64(got) != rid
				return
			}
			p := make([]byte, c.PayloadSize())
			binary.LittleEndian.PutUint64(p, rid)
			c.Insert(l, rid, p)
		})
		if err == nil && wrong {
			err = errWrongPayload
		}
		return err
	}
	// Serial warm pass: alone on the leaf, every visit is exclusive.
	for i := 0; i < keys; i++ {
		if err := visit(i); err != nil {
			t.Fatal(err)
		}
	}
	warm := c.Stats()
	if warm.Inserts != keys {
		t.Fatalf("serial warm pass installed %d of %d entries: %+v", warm.Inserts, keys, warm)
	}

	var wg, visited sync.WaitGroup
	errCh := make(chan error, readers+1)
	visited.Add(readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 2000; n++ {
				err := visit((g*31 + n) % keys)
				if n == 0 {
					visited.Done()
				}
				if err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	// Concurrent index churn: inserts shrink the free region, updates
	// push predicates through the log.
	wg.Add(1)
	go func() {
		defer wg.Done()
		visited.Wait()
		for n := 0; n < 300; n++ {
			if _, err := tr.Insert(k64(1000+n), uint64(1000+n)); err != nil {
				errCh <- err
				return
			}
			if n%5 == 0 {
				c.NotifyUpdate(k64(n % keys))
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after contention: %v", err)
	}
	st := c.Stats()
	t.Logf("contention stats: %+v", st)
	if hits := st.Hits - warm.Hits; hits < readers {
		t.Errorf("concurrent phase hit %d times, want ≥ %d (every reader's first visit)", hits, readers)
	}
}

type contentionErr string

func (e contentionErr) Error() string { return string(e) }

const errWrongPayload = contentionErr("cache returned payload for wrong rid")
