package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/storage"
)

func newTestTree(t *testing.T, pageSize, poolPages int) *Tree {
	t.Helper()
	disk, err := storage.NewMemDisk(pageSize)
	if err != nil {
		t.Fatalf("NewMemDisk: %v", err)
	}
	pool, err := buffer.NewPool(disk, poolPages)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	tr, err := New(pool)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func intKey(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestTreeInsertSearch(t *testing.T) {
	tr := newTestTree(t, 512, 256)
	for i := 0; i < 1000; i++ {
		ins, err := tr.Insert(intKey(i*2), uint64(i))
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		if !ins {
			t.Fatalf("Insert %d: reported duplicate", i)
		}
	}
	for i := 0; i < 1000; i++ {
		v, found, err := tr.Search(intKey(i * 2))
		if err != nil {
			t.Fatalf("Search: %v", err)
		}
		if !found || v != uint64(i) {
			t.Fatalf("key %d: found=%v v=%d", i*2, found, v)
		}
		// Absent keys between present ones.
		if _, found, _ := tr.Search(intKey(i*2 + 1)); found {
			t.Fatalf("key %d should be absent", i*2+1)
		}
	}
	if tr.Len() != 1000 {
		t.Errorf("Len = %d, want 1000", tr.Len())
	}
	if tr.Height() < 2 {
		t.Errorf("tree of 1000 keys on 512B pages should have split; height=%d", tr.Height())
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestTreeUpsert(t *testing.T) {
	tr := newTestTree(t, 512, 64)
	if _, err := tr.Insert(intKey(1), 10); err != nil {
		t.Fatal(err)
	}
	ins, err := tr.Insert(intKey(1), 20)
	if err != nil {
		t.Fatal(err)
	}
	if ins {
		t.Error("second insert of same key should report update, not insert")
	}
	v, _, _ := tr.Search(intKey(1))
	if v != 20 {
		t.Errorf("upsert value = %d, want 20", v)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

func TestTreeDelete(t *testing.T) {
	tr := newTestTree(t, 512, 256)
	for i := 0; i < 500; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	for i := 0; i < 500; i += 2 {
		found, err := tr.Delete(intKey(i))
		if err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if !found {
			t.Fatalf("Delete %d: not found", i)
		}
	}
	if found, _ := tr.Delete(intKey(0)); found {
		t.Error("double delete reported found")
	}
	for i := 0; i < 500; i++ {
		_, found, _ := tr.Search(intKey(i))
		if (i%2 == 0) == found {
			t.Fatalf("key %d: found=%v wrong after deletes", i, found)
		}
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after deletes: %v", err)
	}
}

func TestTreeRandomizedAgainstModel(t *testing.T) {
	tr := newTestTree(t, 512, 512)
	rng := rand.New(rand.NewSource(42))
	model := map[string]uint64{}
	for op := 0; op < 20000; op++ {
		k := intKey(rng.Intn(3000))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Uint64()
			if _, err := tr.Insert(k, v); err != nil {
				t.Fatalf("op %d Insert: %v", op, err)
			}
			model[string(k)] = v
		case 2:
			found, err := tr.Delete(k)
			if err != nil {
				t.Fatalf("op %d Delete: %v", op, err)
			}
			_, want := model[string(k)]
			if found != want {
				t.Fatalf("op %d Delete found=%v want=%v", op, found, want)
			}
			delete(model, string(k))
		}
	}
	if int(tr.Len()) != len(model) {
		t.Fatalf("Len=%d model=%d", tr.Len(), len(model))
	}
	for k, want := range model {
		v, found, err := tr.Search([]byte(k))
		if err != nil || !found || v != want {
			t.Fatalf("Search(%x) = %d,%v,%v want %d", k, v, found, err, want)
		}
	}
	// Scan order must match sorted model keys.
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	i := 0
	c := tr.NewCursor(nil, nil)
	defer c.Close()
	for c.Next() {
		if i >= len(keys) || !bytes.Equal(c.Key(), []byte(keys[i])) {
			t.Fatalf("scan position %d: key mismatch", i)
		}
		i++
	}
	if err := c.Err(); err != nil {
		t.Fatalf("cursor: %v", err)
	}
	if i != len(keys) {
		t.Fatalf("scan visited %d keys, want %d", i, len(keys))
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestTreeVariableKeyLengths(t *testing.T) {
	tr := newTestTree(t, 512, 256)
	rng := rand.New(rand.NewSource(7))
	model := map[string]uint64{}
	for i := 0; i < 2000; i++ {
		klen := 1 + rng.Intn(40)
		k := make([]byte, klen)
		rng.Read(k)
		v := rng.Uint64()
		if _, err := tr.Insert(k, v); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		model[string(k)] = v
	}
	for k, want := range model {
		v, found, err := tr.Search([]byte(k))
		if err != nil || !found || v != want {
			t.Fatalf("Search: %v %v %v, want %d", v, found, err, want)
		}
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestTreeRejectsBadKeys(t *testing.T) {
	tr := newTestTree(t, 512, 64)
	if _, err := tr.Insert(nil, 1); err == nil {
		t.Error("nil key should fail")
	}
	big := make([]byte, 512)
	if _, err := tr.Insert(big, 1); err == nil {
		t.Error("oversized key should fail")
	}
}

func TestBulkLoadFillFactor(t *testing.T) {
	for _, ff := range []float64{0.45, 0.68, 1.0} {
		ff := ff
		t.Run(fmt.Sprintf("ff=%.2f", ff), func(t *testing.T) {
			disk, _ := storage.NewMemDisk(1024)
			pool, _ := buffer.NewPool(disk, 1024)
			n := 5000
			i := 0
			tr, err := BulkLoad(pool, ff, func() ([]byte, uint64, bool) {
				if i >= n {
					return nil, 0, false
				}
				k := intKey(i)
				v := uint64(i)
				i++
				return k, v, true
			})
			if err != nil {
				t.Fatalf("BulkLoad: %v", err)
			}
			if tr.Len() != int64(n) {
				t.Fatalf("Len = %d, want %d", tr.Len(), n)
			}
			for j := 0; j < n; j += 97 {
				v, found, err := tr.Search(intKey(j))
				if err != nil || !found || v != uint64(j) {
					t.Fatalf("Search(%d): %v %v %v", j, v, found, err)
				}
			}
			st, err := tr.Stats()
			if err != nil {
				t.Fatalf("Stats: %v", err)
			}
			if st.MeanLeafFill < ff-0.12 || st.MeanLeafFill > ff+0.05 {
				t.Errorf("mean leaf fill %.3f, want ≈%.2f", st.MeanLeafFill, ff)
			}
			if err := tr.CheckIntegrity(); err != nil {
				t.Fatalf("integrity: %v", err)
			}
		})
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	disk, _ := storage.NewMemDisk(512)
	pool, _ := buffer.NewPool(disk, 64)
	keys := [][]byte{intKey(5), intKey(3)}
	i := 0
	_, err := BulkLoad(pool, 0.68, func() ([]byte, uint64, bool) {
		if i >= len(keys) {
			return nil, 0, false
		}
		k := keys[i]
		i++
		return k, 0, true
	})
	if err == nil {
		t.Error("unsorted bulk load should fail")
	}
}

func TestBulkLoadEmpty(t *testing.T) {
	disk, _ := storage.NewMemDisk(512)
	pool, _ := buffer.NewPool(disk, 64)
	tr, err := BulkLoad(pool, 0.68, func() ([]byte, uint64, bool) { return nil, 0, false })
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if tr.Len() != 0 {
		t.Errorf("empty bulk load Len = %d", tr.Len())
	}
	if _, found, _ := tr.Search(intKey(1)); found {
		t.Error("empty tree found a key")
	}
}

func TestTreeInsertsAfterBulkLoad(t *testing.T) {
	disk, _ := storage.NewMemDisk(512)
	pool, _ := buffer.NewPool(disk, 512)
	i := 0
	tr, err := BulkLoad(pool, 0.68, func() ([]byte, uint64, bool) {
		if i >= 1000 {
			return nil, 0, false
		}
		k := intKey(i * 2)
		v := uint64(i)
		i++
		return k, v, true
	})
	if err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	// Interleave new keys between bulk-loaded ones.
	for j := 0; j < 1000; j++ {
		if _, err := tr.Insert(intKey(j*2+1), uint64(j)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if tr.Len() != 2000 {
		t.Errorf("Len = %d, want 2000", tr.Len())
	}
	if err := tr.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

func TestStatsCounts(t *testing.T) {
	tr := newTestTree(t, 512, 256)
	for i := 0; i < 500; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	st, err := tr.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Keys != 500 {
		t.Errorf("Stats.Keys = %d", st.Keys)
	}
	if st.KeyBytes != 500*8 {
		t.Errorf("Stats.KeyBytes = %d, want %d", st.KeyBytes, 500*8)
	}
	if st.LeafPages == 0 || st.Pages != st.LeafPages+st.InternalPages {
		t.Errorf("page counts inconsistent: %+v", st)
	}
	if st.SizeBytes != int64(st.Pages)*512 {
		t.Errorf("SizeBytes = %d", st.SizeBytes)
	}
}

func TestVisitLeafFindsKey(t *testing.T) {
	tr := newTestTree(t, 512, 256)
	for i := 0; i < 200; i++ {
		tr.Insert(intKey(i), uint64(i+1000))
	}
	visited := false
	err := tr.VisitLeaf(intKey(42), func(l *Leaf) {
		visited = true
		v, found := l.Find(intKey(42))
		if !found || v != 1042 {
			t.Errorf("Find = %d,%v", v, found)
		}
		if !l.Exclusive() {
			t.Error("uncontended visit should hold exclusive latch")
		}
		lo, hi := l.FreeRegion()
		if lo >= hi {
			t.Error("leaf should have free space")
		}
		if !l.Covers(intKey(42)) || l.Covers(intKey(1<<40)) || l.Covers(nil) {
			t.Error("Covers wrong")
		}
	})
	if err != nil {
		t.Fatalf("VisitLeaf: %v", err)
	}
	if !visited {
		t.Fatal("callback not invoked")
	}
}

func TestStablePointWithinFreeRegion(t *testing.T) {
	tr := newTestTree(t, 1024, 64)
	for i := 0; i < 20; i++ {
		tr.Insert(intKey(i), uint64(i))
	}
	tr.VisitLeaf(intKey(0), func(l *Leaf) {
		s := l.StablePoint()
		lo, hi := l.FreeRegion()
		// S should lie between the header and the key region — close to
		// the directory end since keys are much larger than pointers.
		if s < lo-64 || s > hi {
			t.Errorf("stable point %d outside plausible range [%d,%d]", s, lo, hi)
		}
	})
}
