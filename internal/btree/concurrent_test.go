package btree

import (
	"encoding/binary"
	"sync"
	"testing"
)

// TestTreeConcurrentReadersAndWriter runs parallel searchers and
// scanners against a writer inserting and deleting keys. Run under
// -race in CI; assertions check that readers only ever see values the
// writer could have written.
func TestTreeConcurrentReadersAndWriter(t *testing.T) {
	tr := newTestTree(t, 1024, 1024)
	const stable = 2000
	for i := 0; i < stable; i++ {
		if _, err := tr.Insert(intKey(i), uint64(i)+1); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	done := make(chan struct{})

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				i := (g*131 + n) % stable
				n++
				v, found, err := tr.Search(intKey(i))
				if err != nil {
					errCh <- err
					return
				}
				if !found || v != uint64(i)+1 {
					errCh <- errBadRead
					return
				}
			}
		}(g)
	}
	// A scanner walking stable keys concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 20; round++ {
			count := 0
			c := tr.NewCursor(intKey(0), intKey(stable))
			for c.Next() {
				count++
			}
			err := c.Err()
			c.Close()
			if err != nil {
				errCh <- err
				return
			}
			if count != stable {
				errCh <- errBadRead
				return
			}
		}
	}()
	// Writer churns keys in a disjoint range.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for round := 0; round < 10; round++ {
			for i := 0; i < 500; i++ {
				k := intKey(stable + i)
				if _, err := tr.Insert(k, uint64(round)); err != nil {
					errCh <- err
					return
				}
			}
			for i := 0; i < 500; i++ {
				if _, err := tr.Delete(intKey(stable + i)); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
	if tr.Len() != stable {
		t.Errorf("Len = %d, want %d", tr.Len(), stable)
	}
}

type btreeTestErr string

func (e btreeTestErr) Error() string { return string(e) }

const errBadRead = btreeTestErr("reader observed impossible state")

func TestVisitAllLeavesCoversEveryKey(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	const n = 1500
	for i := 0; i < n; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	var seen int
	err := tr.VisitAllLeaves(func(l *Leaf) bool {
		seen += l.NumKeys()
		for i := 0; i < l.NumKeys(); i++ {
			k := l.n.appendKey(nil, i)
			v := l.ValueAt(i)
			if binary.BigEndian.Uint64(k) != v {
				t.Errorf("leaf key/value mismatch")
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatalf("VisitAllLeaves: %v", err)
	}
	if seen != n {
		t.Errorf("visited %d keys, want %d", seen, n)
	}
	// Early stop.
	visits := 0
	tr.VisitAllLeaves(func(l *Leaf) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("early stop visited %d leaves", visits)
	}
}

func TestOpenReattachesTree(t *testing.T) {
	tr := newTestTree(t, 512, 256)
	for i := 0; i < 300; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	reopened, err := Open(tr.pool, tr.Root(), tr.Height(), tr.Len())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i += 17 {
		v, found, err := reopened.Search(intKey(i))
		if err != nil || !found || v != uint64(i) {
			t.Fatalf("reopened Search(%d): %v %v %v", i, v, found, err)
		}
	}
	if err := reopened.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}
