package btree

import (
	"bytes"
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/tuple"
)

// nodeModel is the sorted-map model a fuzzed node is checked against.
type nodeModel struct {
	keys [][]byte
	vals []uint64
}

func (m *nodeModel) find(key []byte) (int, bool) {
	i := sort.Search(len(m.keys), func(i int) bool { return bytes.Compare(m.keys[i], key) >= 0 })
	return i, i < len(m.keys) && bytes.Equal(m.keys[i], key)
}

func (m *nodeModel) insert(i int, key []byte, v uint64) {
	m.keys = append(m.keys[:i], append([][]byte{append([]byte(nil), key...)}, m.keys[i:]...)...)
	m.vals = append(m.vals[:i], append([]uint64{v}, m.vals[i:]...)...)
}

// fuzzStrs are the string halves of the fuzzed composite keys: shared
// prefixes of several lengths, strings that extend one another, and
// strings that share nothing.
var fuzzStrs = []string{
	"", "a", "ab", "abc", "page/", "page/0", "page/01", "page/012",
	"zz", strings.Repeat("x", 40), strings.Repeat("x", 41), "\x00", "\xff\xfe",
}

// fuzzKey builds a composite (string, int) key, memcomparably encoded;
// a ≥ 250 makes the string NULL, which shares no first byte with the
// others.
func fuzzKey(t *testing.T, a, b byte) []byte {
	str := tuple.String(fuzzStrs[int(a)%len(fuzzStrs)] + strings.Repeat("q", int(a)/len(fuzzStrs)%3))
	if a >= 250 {
		str = tuple.Null(tuple.KindString)
	}
	k, err := tuple.EncodeKey(nil, str, tuple.Int64(int64(b)*1009-50000))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// nodeHarness is one node page and its model.
type nodeHarness struct {
	t     *testing.T
	typ   uint16
	n     node
	m     nodeModel
	stage EntryBlock
}

// check verifies the page against the model: order, search, covers,
// appendKey, cmpKey, the free-region bounds and the footer.
func (h *nodeHarness) check(step int) {
	t, n, m := h.t, h.n, &h.m
	t.Helper()
	if !n.footerOK() {
		t.Fatalf("step %d: footer destroyed", step)
	}
	if n.typ() != h.typ {
		t.Fatalf("step %d: type %d, want %d", step, n.typ(), h.typ)
	}
	if n.nKeys() != len(m.keys) {
		t.Fatalf("step %d: %d keys, model has %d", step, n.nKeys(), len(m.keys))
	}
	lo, hi := n.freeRegion()
	if lo != nodeHeaderSize+n.nKeys()*dirEntrySize || lo > hi || hi > n.pageEnd()-n.prefixLen() {
		t.Fatalf("step %d: free region [%d, %d) with %d keys, prefix %d", step, lo, hi, n.nKeys(), n.prefixLen())
	}
	if n.usedBytes()+n.freeSpace() != n.usableBytes() {
		t.Fatalf("step %d: used %d + free %d != usable %d", step, n.usedBytes(), n.freeSpace(), n.usableBytes())
	}
	var k []byte
	for i, want := range m.keys {
		if off := n.dirEntry(i); off < hi || off+cellSize(n.keyLen(i)-n.prefixLen()) > n.pageEnd()-n.prefixLen() {
			t.Fatalf("step %d: cell %d at %d outside [%d, %d)", step, i, off, hi, n.pageEnd()-n.prefixLen())
		}
		k = n.appendKey(k[:0], i)
		if !bytes.Equal(k, want) {
			t.Fatalf("step %d: key %d = %x, want %x", step, i, k, want)
		}
		if !bytes.HasPrefix(want, n.prefix()) {
			t.Fatalf("step %d: key %d = %x lacks page prefix %x", step, i, want, n.prefix())
		}
		if n.keyLen(i) != len(want) {
			t.Fatalf("step %d: keyLen %d = %d, want %d", step, i, n.keyLen(i), len(want))
		}
		if n.value(i) != m.vals[i] {
			t.Fatalf("step %d: value %d = %d, want %d", step, i, n.value(i), m.vals[i])
		}
		for _, probe := range probesAround(want) {
			if got, exp := n.cmpKey(i, probe), bytes.Compare(want, probe); got != exp {
				t.Fatalf("step %d: cmpKey(%d, %x) = %d, want %d", step, i, probe, got, exp)
			}
			if got, exp := n.covers(probe), len(m.keys) > 0 && bytes.Compare(m.keys[0], probe) <= 0 && bytes.Compare(m.keys[len(m.keys)-1], probe) >= 0; got != exp {
				t.Fatalf("step %d: covers(%x) = %v, want %v", step, probe, got, exp)
			}
			pos, found := n.search(probe)
			if wpos, wfound := m.find(probe); pos != wpos || found != wfound {
				t.Fatalf("step %d: search(%x) = %d,%v, want %d,%v", step, probe, pos, found, wpos, wfound)
			}
		}
	}
}

// probesAround returns keys equal to, just around, and prefixes of key.
func probesAround(key []byte) [][]byte {
	probes := [][]byte{key, append(append([]byte(nil), key...), 0), nil}
	for _, cut := range []int{1, len(key) / 2, len(key) - 1} {
		if cut >= 0 && cut <= len(key) {
			probes = append(probes, key[:cut])
		}
	}
	if len(key) > 0 {
		up := append([]byte(nil), key...)
		up[len(up)-1]++
		down := append([]byte(nil), key...)
		down[len(down)-1]--
		probes = append(probes, up, down)
	}
	return probes
}

// split distributes the staged entries over two fresh pages as a tree
// split does and keeps the half named by right, checking both.
func (h *nodeHarness) split(step int, right bool) {
	b := &h.stage
	cut, err := splitCut(b, h.typ == nodeLeaf, h.n.usableBytes())
	if err != nil {
		h.t.Fatalf("step %d: %v", step, err)
	}
	from := cut
	if h.typ == nodeInternal {
		from = cut + 1
	}
	halves := [2]struct {
		lo, hi int
		n      node
	}{{0, cut, initNode(make([]byte, len(h.n.data)), h.typ)}, {from, b.Len(), initNode(make([]byte, len(h.n.data)), h.typ)}}
	for side, half := range halves {
		if err := half.n.fillFrom(b, half.lo, half.hi); err != nil {
			h.t.Fatalf("step %d: filling split half %d: %v", step, side, err)
		}
		var m nodeModel
		for i := half.lo; i < half.hi; i++ {
			m.insert(len(m.keys), b.Key(i), b.Value(i))
		}
		h.n, h.m = half.n, m
		h.check(step)
		if want := sharedPrefix(b.Key(half.lo), b.Key(half.hi-1)); h.n.prefixLen() != want {
			h.t.Fatalf("step %d: half %d prefix %d, want %d", step, side, h.n.prefixLen(), want)
		}
		if side == 0 && !right {
			break
		}
	}
}

// FuzzNodeOps drives one index page through random inserts, deletes,
// splits, compactions and bulk rebuilds with variable-length composite
// (string, int) keys, checking it against a sorted-map model after
// every step. The first byte picks the node type and page size; then
// every three bytes are one operation and its two key bytes.
func FuzzNodeOps(f *testing.F) {
	const split, rebuild, compact = 3, 4, 5
	// seed joins runs of operations after the config byte.
	seed := func(cfg byte, runs ...[][]byte) []byte {
		out := []byte{cfg}
		for _, r := range runs {
			out = append(out, bytes.Join(r, nil)...)
		}
		return out
	}
	ins := func(a byte, from, to int) (ops [][]byte) {
		for b := from; b < to; b++ {
			ops = append(ops, []byte{0, a, byte(b)})
		}
		return ops
	}
	op := func(code, a, b byte) [][]byte { return [][]byte{{code, a, b}} }
	// A new minimum and a new maximum shrink a rebuilt page's prefix.
	f.Add(seed(0, ins(6, 10, 30), op(rebuild, 0, 0), ins(5, 3, 4), ins(8, 9, 10)))
	// A shrink that no longer fits splits the page: long keys sharing a
	// 41-byte prefix fill it, then keys sharing less arrive.
	f.Add(seed(0, ins(10, 0, 12), op(rebuild, 0, 0), ins(10, 12, 30), ins(1, 0, 1)))
	f.Add(seed(0, ins(9, 0, 9), op(rebuild, 0, 0), ins(9, 9, 14), op(rebuild, 0, 0), ins(1, 1, 2), ins(8, 2, 3)))
	// A split whose halves get longer prefixes than the page had.
	f.Add(seed(1, ins(6, 0, 10), ins(7, 0, 10), op(split, 0, 0), op(split, 0, 1)))
	f.Add(seed(3, ins(4, 0, 8), ins(7, 0, 8), op(split, 0, 0)))
	// Every key shares one prefix; deletes and compaction keep it.
	f.Add(seed(0, ins(7, 0, 40), op(rebuild, 0, 0), op(2, 5, 0), op(2, 0, 0), op(compact, 0, 0), ins(7, 200, 201)))
	// A zero-length prefix: the keys' first bytes differ.
	f.Add(seed(2, ins(250, 0, 5), ins(8, 0, 5), op(rebuild, 0, 0), ins(11, 7, 8), op(split, 0, 1), op(split, 0, 0)))

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		typ := nodeLeaf
		if ops[0]&1 == 1 {
			typ = nodeInternal
		}
		pageSize := 512 << (ops[0] >> 1 % 3)
		h := &nodeHarness{t: t, typ: typ, n: initNode(make([]byte, pageSize), typ)}
		ops = ops[1:]
		for step := 0; len(ops) >= 3; step++ {
			op, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			switch op % 6 {
			case 0, 1: // insert; a key that does not fit splits the page
				key := fuzzKey(t, a, b)
				pos, found := h.n.search(key)
				if _, wfound := h.m.find(key); found != wfound {
					t.Fatalf("step %d: search found=%v, model %v", step, found, wfound)
				}
				if found {
					continue
				}
				fits := h.n.canInsert(key)
				switch err := h.n.insertAt(pos, key, uint64(step)); {
				case err == nil:
					if !fits {
						t.Fatalf("step %d: insert fit where canInsert said it would not", step)
					}
					h.m.insert(pos, key, uint64(step))
				case errors.Is(err, errNodeFull):
					if fits {
						t.Fatalf("step %d: canInsert said fits, insert said full", step)
					}
					h.check(step) // a refused insert changes nothing
					stageMerged(&h.stage, h.n, pos, key, uint64(step))
					h.split(step, b&1 == 1)
				default:
					t.Fatalf("step %d: insert: %v", step, err)
				}
			case 2: // delete
				if len(h.m.keys) == 0 {
					continue
				}
				i := int(a) % len(h.m.keys)
				plen := h.n.prefixLen()
				h.n.deleteAt(i)
				h.m.keys = append(h.m.keys[:i], h.m.keys[i+1:]...)
				h.m.vals = append(h.m.vals[:i], h.m.vals[i+1:]...)
				if h.n.prefixLen() != plen {
					t.Fatalf("step %d: delete changed the prefix %d → %d", step, plen, h.n.prefixLen())
				}
				h.checkZeroFree(step)
			case split: // split the page as it stands
				if len(h.m.keys) < 3 {
					continue
				}
				h.stage.Reset()
				for i := range h.m.keys {
					h.stage.pushKey(h.n, i)
				}
				h.split(step, b&1 == 1)
			case rebuild: // rebuild as a bulk load does: prefix from first and last key
				h.stage.Reset()
				for i := range h.m.keys {
					h.stage.pushKey(h.n, i)
				}
				if err := h.n.fillFrom(&h.stage, 0, h.stage.Len()); err != nil {
					t.Fatalf("step %d: rebuild: %v", step, err)
				}
				if len(h.m.keys) > 0 {
					if want := sharedPrefix(h.m.keys[0], h.m.keys[len(h.m.keys)-1]); h.n.prefixLen() != want {
						t.Fatalf("step %d: rebuilt prefix %d, want %d", step, h.n.prefixLen(), want)
					}
				}
			case compact:
				h.n.compactCells()
				h.checkZeroFree(step)
			}
			h.check(step)
		}
	})
}

// checkZeroFree verifies a compaction left the free region zeroed.
func (h *nodeHarness) checkZeroFree(step int) {
	lo, hi := h.n.freeRegion()
	for i := lo; i < hi; i++ {
		if h.n.data[i] != 0 {
			h.t.Fatalf("step %d: free byte %d = %#x after compaction", step, i, h.n.data[i])
		}
	}
}
