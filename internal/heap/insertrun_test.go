package heap

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/storage"
)

func runRecs(n, size int, tag byte) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		rec := make([]byte, size)
		rec[0] = tag
		rec[1] = byte(i)
		rec[2] = byte(i >> 8)
		recs[i] = rec
	}
	return recs
}

func TestInsertRunBasic(t *testing.T) {
	f := newTestFile(t)
	recs := runRecs(500, 40, 'r')
	rids := make([]storage.RID, len(recs))
	n, err := f.InsertRun(recs, rids)
	if err != nil {
		t.Fatalf("InsertRun: %v", err)
	}
	if n != len(recs) {
		t.Fatalf("placed %d of %d", n, len(recs))
	}
	for i, rid := range rids {
		got, err := f.Get(rid)
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("record %d corrupted", i)
		}
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.LiveRecords != len(recs) {
		t.Errorf("LiveRecords = %d, want %d", st.LiveRecords, len(recs))
	}
	if _, err := f.InsertRun([][]byte{{1}}, nil); err == nil {
		t.Error("short rid slice accepted")
	}
	// An empty record fails at its own index; the return is the number
	// actually placed, and the rids before it are valid.
	bad := [][]byte{{1, 2}, {3, 4}, nil, {5, 6}}
	badRIDs := make([]storage.RID, len(bad))
	n, err = f.InsertRun(bad, badRIDs)
	if err == nil {
		t.Fatal("empty record accepted")
	}
	if n != 2 {
		t.Fatalf("placed = %d, want 2 (count == failing index)", n)
	}
	for i := 0; i < n; i++ {
		if got, err := f.Get(badRIDs[i]); err != nil || !bytes.Equal(got, bad[i]) {
			t.Fatalf("pre-failure record %d not durable: %v %v", i, got, err)
		}
	}
}

// TestInsertRunConcurrent storms InsertRun from 8 goroutines (their
// runs extending the file as pages fill) and checks no RID is handed
// out twice and the final accounting is exact. Run under -race in CI.
func TestInsertRunConcurrent(t *testing.T) {
	f := newTestFile(t)
	const (
		workers = 8
		perRun  = 64
		runs    = 20
	)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	var mu sync.Mutex
	seen := make(map[storage.RID]byte)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < runs; r++ {
				recs := runRecs(perRun, 32, byte(w))
				rids := make([]storage.RID, perRun)
				if _, err := f.InsertRun(recs, rids); err != nil {
					errCh <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				mu.Lock()
				for _, rid := range rids {
					if prev, dup := seen[rid]; dup {
						mu.Unlock()
						errCh <- fmt.Errorf("rid %v handed to workers %d and %d", rid, prev, w)
						return
					}
					seen[rid] = byte(w)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if want := workers * perRun * runs; st.LiveRecords != want {
		t.Errorf("LiveRecords = %d, want %d", st.LiveRecords, want)
	}
}

func TestGetRun(t *testing.T) {
	f := newTestFile(t)
	recs := runRecs(300, 30, 'g')
	rids := make([]storage.RID, len(recs))
	if _, err := f.InsertRun(recs, rids); err != nil {
		t.Fatalf("InsertRun: %v", err)
	}
	// Page-sorted order maximizes grouping; correctness holds anyway.
	order := make([]int, len(rids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return rids[order[a]].Page < rids[order[b]].Page })
	sorted := make([]storage.RID, len(rids))
	for i, o := range order {
		sorted[i] = rids[o]
	}
	got := 0
	err := f.GetRun(sorted, func(i int, rec []byte) bool {
		if !bytes.Equal(rec, recs[order[i]]) {
			t.Fatalf("record %d mismatched", order[i])
		}
		got++
		return true
	})
	if err != nil {
		t.Fatalf("GetRun: %v", err)
	}
	if got != len(recs) {
		t.Errorf("visited %d of %d", got, len(recs))
	}
	// Early stop.
	got = 0
	if err := f.GetRun(sorted, func(i int, rec []byte) bool { got++; return got < 5 }); err != nil {
		t.Fatalf("GetRun early stop: %v", err)
	}
	if got != 5 {
		t.Errorf("early stop visited %d, want 5", got)
	}
	// Dead slot fails the run.
	if _, err := f.Delete(rids[0]); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := f.GetRun(rids[:1], func(int, []byte) bool { return true }); err == nil {
		t.Error("GetRun over a dead slot succeeded")
	}
}
