package btree

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// fullNarrowTree bulk-loads n keys into leaves filled to the brim, each
// key's value one byte wide: no leaf has room to widen a single value.
func fullNarrowTree(t *testing.T, n int) (*Tree, map[int]uint64) {
	t.Helper()
	disk, err := storage.NewMemDisk(512)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := buffer.NewPool(disk, 1024)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]uint64{}
	i := 0
	tr, err := BulkLoad(pool, 1.0, func() ([]byte, uint64, bool) {
		if i >= n {
			return nil, 0, false
		}
		i++
		want[i-1] = uint64(i%200 + 1)
		return intKey(i - 1), want[i-1], true
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, want
}

// checkWide reads every key and value of want back, and the tree's
// shape.
func checkWide(t *testing.T, tr *Tree, want map[int]uint64) {
	t.Helper()
	for k, v := range want {
		got, found, err := tr.Search(intKey(k))
		if err != nil || !found || got != v {
			t.Fatalf("key %d reads %#x %v %v, want %#x", k, got, found, err, v)
		}
	}
	if tr.Len() != int64(len(want)) {
		t.Fatalf("Len %d, want %d", tr.Len(), len(want))
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// wideValues are values of every width past the leaves' one byte: eight
// bytes leave no two-way split of a full leaf room for the widening, so
// the leaf first splits as it stands (splitLeafPut).
var wideValues = []uint64{0x1234, 0x12_3456, 0x1234_5678, 0x12_3456_789A, 0x1234_5678_9ABC_DEF0}

// TestInsertUpsertWidensFullLeaf: Insert's in-place upsert of a value
// wider than a full leaf can widen to falls back to the split path.
func TestInsertUpsertWidensFullLeaf(t *testing.T) {
	tr, want := fullNarrowTree(t, 2000)
	leaves := leafCount(t, tr)
	for i, v := range wideValues {
		k := 100 + 373*i
		ins, err := tr.Insert(intKey(k), v)
		if err != nil || ins {
			t.Fatalf("upsert %d: inserted=%v err=%v", k, ins, err)
		}
		want[k] = v
		checkWide(t, tr, want)
	}
	if tr.LatchRetries() != int64(len(wideValues)) {
		t.Errorf("%d pessimistic retries, want one per widening upsert", tr.LatchRetries())
	}
	if got := leafCount(t, tr); got <= leaves {
		t.Errorf("%d leaves after widening upserts, %d before: no leaf split", got, leaves)
	}
}

// TestPessimisticUpsertWidensFullLeaf drives the split path's own
// in-place upsert (insertLatched) on full leaves.
func TestPessimisticUpsertWidensFullLeaf(t *testing.T) {
	tr, want := fullNarrowTree(t, 2000)
	for i, v := range wideValues {
		k := 1999 - 401*i
		ins, prev, err := tr.insertPessimistic(intKey(k), v, false)
		if err != nil || ins || prev != want[k] {
			t.Fatalf("upsert %d: inserted=%v prev=%#x err=%v, want prev %#x", k, ins, prev, err, want[k])
		}
		want[k] = v
		checkWide(t, tr, want)
	}
}

// TestApplyRunUpsertWidensFullLeaf: ApplyRun's in-place upsert pushes a
// value its leaf cannot widen to through the split path, reports what
// it replaced, and the run resumes.
func TestApplyRunUpsertWidensFullLeaf(t *testing.T) {
	tr, want := fullNarrowTree(t, 2000)
	var run []RunEntry
	for k := 10; k < 2000; k += 97 {
		run = append(run, RunEntry{Key: intKey(k), Value: wideValues[k%len(wideValues)], Op: RunUpsert})
	}
	st, err := tr.ApplyRun(run)
	if err != nil {
		t.Fatal(err)
	}
	if st.Updated != len(run) || st.Inserted != 0 || st.Done != len(run) || st.Splits == 0 {
		t.Fatalf("stats %+v, want %d updates through at least one split", st, len(run))
	}
	for i := range run {
		k := 10 + 97*i
		if e := &run[i]; !e.Existed || e.Prev != want[k] {
			t.Fatalf("entry %d: existed=%v prev=%#x, want the old %#x", k, e.Existed, e.Prev, want[k])
		}
		want[k] = run[i].Value
	}
	checkWide(t, tr, want)
}

func leafCount(t *testing.T, tr *Tree) int {
	t.Helper()
	st, err := tr.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.LeafPages
}

// TestWideUpsertSplitsLeafAsItStands widens the middle value of a full
// leaf of one-byte suffixes from one byte to eight: each half of any
// two-way split still holds more widened cells than a page fits, so the
// leaf splits as it stands and the upsert lands on a retry.
func TestWideUpsertSplitsLeafAsItStands(t *testing.T) {
	tr, want := fullNarrowTree(t, 2000)
	var mid []byte
	before := 0
	if err := tr.VisitLeaf(intKey(1000), func(l *Leaf) {
		before = l.NumKeys()
		mid = l.n.appendKey(nil, before/2)
	}); err != nil {
		t.Fatal(err)
	}
	k := int(mid[len(mid)-1]) | int(mid[len(mid)-2])<<8
	const v = 0x1234_5678_9ABC_DEF0
	if ins, err := tr.Insert(mid, v); err != nil || ins {
		t.Fatalf("upsert: inserted=%v err=%v", ins, err)
	}
	want[k] = v
	checkWide(t, tr, want)
	if err := tr.VisitLeaf(mid, func(l *Leaf) {
		if l.NumKeys() > before/2 {
			t.Errorf("the widened key's leaf holds %d of the %d keys its full leaf held: one split cannot have fit it", l.NumKeys(), before)
		}
	}); err != nil {
		t.Fatal(err)
	}
}
