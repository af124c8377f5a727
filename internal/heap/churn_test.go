package heap

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// newShardedFile builds a file with an explicit shard count on a
// generous pool, so shard behavior is tested regardless of GOMAXPROCS.
func newShardedFile(t *testing.T, shards int, opts ...Option) *File {
	t.Helper()
	disk, err := storage.NewMemDisk(1024)
	if err != nil {
		t.Fatalf("NewMemDisk: %v", err)
	}
	pool, err := buffer.NewPool(disk, 1024)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	f, err := NewFile(pool, append([]Option{WithInsertShards(shards)}, opts...)...)
	if err != nil {
		t.Fatalf("NewFile: %v", err)
	}
	return f
}

// TestHeapShardedChurn drives concurrent Insert/Delete/Update traffic
// against the per-shard free-space maps and then verifies the survivors
// against per-goroutine models: no RID lost or corrupted, no RID handed
// to two owners, byte accounting in Stats exact, and the fill-factor
// budget honored on every page. Run under -race this also exercises the
// shard-mutex / frame-latch / meta ordering.
func TestHeapShardedChurn(t *testing.T) {
	const (
		workers    = 8
		opsPerG    = 2500
		fillFactor = 0.8
	)
	f := newShardedFile(t, 4, WithFillFactor(fillFactor))
	if got := f.InsertShards(); got != 4 {
		t.Fatalf("InsertShards() = %d, want 4", got)
	}

	models := make([]map[storage.RID][]byte, workers)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			model := map[storage.RID][]byte{}
			var live []storage.RID
			fail := func(format string, args ...any) {
				errCh <- fmt.Errorf("worker %d: %s", w, fmt.Sprintf(format, args...))
			}
			for op := 0; op < opsPerG; op++ {
				switch rng.Intn(5) {
				case 0, 1, 2: // insert-biased so the file keeps churning
					rec := make([]byte, 8+rng.Intn(120))
					rng.Read(rec)
					rec[0] = byte(w) // owner tag: catches cross-owner RID reuse
					rid, err := f.Insert(rec)
					if err != nil {
						fail("op %d Insert: %v", op, err)
						return
					}
					if _, dup := model[rid]; dup {
						fail("op %d: rid %v handed out twice while live", op, rid)
						return
					}
					model[rid] = append([]byte(nil), rec...)
					live = append(live, rid)
				case 3:
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					rid := live[i]
					if err := f.Delete(rid); err != nil {
						fail("op %d Delete(%v): %v", op, rid, err)
						return
					}
					delete(model, rid)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				case 4:
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					rid := live[i]
					rec := make([]byte, 8+rng.Intn(120))
					rng.Read(rec)
					rec[0] = byte(w)
					nrid, err := f.Update(rid, rec)
					if err != nil {
						fail("op %d Update(%v): %v", op, rid, err)
						return
					}
					if nrid != rid {
						delete(model, rid)
						live[i] = nrid
					}
					model[nrid] = append([]byte(nil), rec...)
				}
			}
			models[w] = model
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// No RID lost, none corrupted, none owned twice.
	owners := map[storage.RID]int{}
	liveRecords, usedBytes := 0, 0
	for w, model := range models {
		for rid, want := range model {
			if prev, dup := owners[rid]; dup {
				t.Fatalf("rid %v live in workers %d and %d", rid, prev, w)
			}
			owners[rid] = w
			got, err := f.Get(rid)
			if err != nil {
				t.Fatalf("worker %d rid %v lost: %v", w, rid, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("worker %d rid %v corrupted", w, rid)
			}
			liveRecords++
			usedBytes += len(want)
		}
	}

	// Stats byte accounting must be exact, not advisory.
	st, err := f.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.LiveRecords != liveRecords {
		t.Errorf("Stats.LiveRecords = %d, models hold %d", st.LiveRecords, liveRecords)
	}
	if st.UsedBytes != usedBytes {
		t.Errorf("Stats.UsedBytes = %d, models hold %d", st.UsedBytes, usedBytes)
	}

}

// TestHeapShardedBudget runs concurrent insert/delete churn (no
// updates: the fill-factor headroom is *for* update growth, so only
// insert packing is capped) and asserts no page is ever packed past
// its budget — two inserters racing into one page must not overshoot.
func TestHeapShardedBudget(t *testing.T) {
	const fillFactor = 0.8
	f := newShardedFile(t, 4, WithFillFactor(fillFactor))
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			var live []storage.RID
			for op := 0; op < 2000; op++ {
				if rng.Intn(3) < 2 || len(live) == 0 {
					rid, err := f.Insert(bytes.Repeat([]byte{byte(w)}, 8+rng.Intn(120)))
					if err != nil {
						errCh <- err
						return
					}
					live = append(live, rid)
				} else {
					i := rng.Intn(len(live))
					if err := f.Delete(live[i]); err != nil {
						errCh <- err
						return
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	ff := float64(fillFactor) // force non-constant: Go rejects fractional constant→int
	budget := int(1024 * ff)
	for _, id := range f.Pages() {
		if err := f.VisitPage(id, func(sp *storage.SlottedPage, _ bool) {
			if used := sp.UsedBytes(); used > budget {
				t.Errorf("page %v holds %d bytes, budget %d", id, used, budget)
			}
		}); err != nil {
			t.Fatalf("VisitPage(%v): %v", id, err)
		}
	}
}

// TestHeapCrossShardReuse pins down the fallback path: space freed in
// pages owned by other shards must be found and refilled before the
// file grows, even though the deleting and reinserting goroutine is
// affine to a single shard.
func TestHeapCrossShardReuse(t *testing.T) {
	const rec = 100
	f := newShardedFile(t, 4)

	// Phase 1: parallel ingest spreads page ownership across shards.
	var wg sync.WaitGroup
	rids := make([][]storage.RID, 4)
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				rid, err := f.Insert(bytes.Repeat([]byte{byte(w)}, rec))
				if err != nil {
					errCh <- err
					return
				}
				rids[w] = append(rids[w], rid)
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Phase 2: one goroutine deletes everything, then reinserts the
	// same volume. Its home shard does not own most of the freed pages,
	// so reuse requires the cross-shard fallback.
	for _, rs := range rids {
		for _, rid := range rs {
			if err := f.Delete(rid); err != nil {
				t.Fatalf("Delete(%v): %v", rid, err)
			}
		}
	}
	pagesBefore := f.NumPages()
	for i := 0; i < 400; i++ {
		if _, err := f.Insert(bytes.Repeat([]byte{9}, rec)); err != nil {
			t.Fatalf("re-Insert %d: %v", i, err)
		}
	}
	if grew := f.NumPages() - pagesBefore; grew > f.InsertShards() {
		t.Errorf("freed space not reused across shards: file grew by %d pages (%d → %d)",
			grew, pagesBefore, f.NumPages())
	}
}

// TestHeapShardedIngestPacks counts what sharding costs in space: after
// g concurrent writers insert the same fixed-size records, the file is
// at most one partially filled tail page per insert shard larger than a
// perfectly packed one. Pages repeat from run to run; throughput would
// not.
func TestHeapShardedIngestPacks(t *testing.T) {
	const (
		pageSize = 8192
		records  = 20000
		size     = 64
		shards   = 8
	)
	// One record's footprint (record + slot entry) against an empty
	// page's usable bytes gives the packed file size.
	page := storage.AsSlotted(make([]byte, pageSize))
	page.Init()
	usable := page.AvailableBytes()
	if _, err := page.Insert(make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	packed := (records*(usable-page.AvailableBytes()) + usable - 1) / usable
	for _, g := range []int{1, 2, 4} {
		disk, err := storage.NewMemDisk(pageSize)
		if err != nil {
			t.Fatalf("NewMemDisk: %v", err)
		}
		pool, err := buffer.NewPool(disk, 1024)
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		f, err := NewFile(pool, WithInsertShards(shards))
		if err != nil {
			t.Fatalf("NewFile: %v", err)
		}
		var wg sync.WaitGroup
		errCh := make(chan error, g)
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rec := make([]byte, size)
				rec[0] = byte(w)
				for n := 0; n < records/g; n++ {
					if _, err := f.Insert(rec); err != nil {
						errCh <- err
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
		if got, limit := f.NumPages(), packed+f.InsertShards(); got > limit {
			t.Errorf("g=%d: %d pages, want ≤ %d (packed %d + one tail page per shard)", g, got, limit, packed)
		}
		if err := pool.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// TestHeapAppendOnlyForcesSingleShard: append-only placement has one
// global tail by definition, so the shard option must be overridden.
func TestHeapAppendOnlyForcesSingleShard(t *testing.T) {
	f := newShardedFile(t, 4, AppendOnly())
	if got := f.InsertShards(); got != 1 {
		t.Errorf("append-only file has %d insert shards, want 1", got)
	}
}

// TestFreeSpaceMapPick checks the bucketed map directly: picks must
// honor need, prefer returning some fitting page, and report nothing
// when no page fits.
func TestFreeSpaceMapPick(t *testing.T) {
	m := newFreeSpaceMap(1024)
	if _, ok := m.pick(1); ok {
		t.Error("empty map produced a page")
	}
	m.set(storage.PageID(1), 100)
	m.set(storage.PageID(2), 500)
	m.set(storage.PageID(3), 900)
	if id, ok := m.pick(600); !ok || id != storage.PageID(3) {
		t.Errorf("pick(600) = %v,%v — only page 3 fits", id, ok)
	}
	if _, ok := m.pick(901); ok {
		t.Error("pick(901) found a page although none fits")
	}
	// Shrinking a page's entry moves it down a bucket.
	m.set(storage.PageID(3), 50)
	if _, ok := m.pick(600); ok {
		t.Error("pick(600) still sees page 3 after it shrank")
	}
	if id, ok := m.pick(400); !ok || id != storage.PageID(2) {
		t.Errorf("pick(400) = %v,%v — want page 2", id, ok)
	}
	// Growing re-promotes.
	m.set(storage.PageID(1), 1024)
	if id, ok := m.pick(1000); !ok || id != storage.PageID(1) {
		t.Errorf("pick(1000) = %v,%v — want page 1", id, ok)
	}
}
