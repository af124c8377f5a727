package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// LookupResult describes how a point lookup was answered — the paper's
// three-tier hierarchy made observable.
type LookupResult struct {
	Found bool
	// CacheHit means the query was answered entirely from the index
	// leaf (key fields + cached fields); no heap page was touched.
	CacheHit bool
	// HeapAccess means the heap page was fetched (through the buffer
	// pool, possibly from disk).
	HeapAccess bool
	// CacheFilled means a miss installed a fresh cache entry.
	CacheFilled bool
	// RID is the matched row's location (valid when Found).
	RID storage.RID
}

// Lookup performs a point query on a unique index, projecting the named
// fields (nil projects the full row).
//
// The flow is the paper's Section 2.1.1 verbatim: descend to the leaf;
// on finding the key, scan the leaf's cache slots for the RID. If the
// cached payload plus the key fields cover the projection, answer
// without touching the heap. Otherwise fetch the heap row while the
// leaf is still pinned and install the missing cache entry (a volatile
// write that never dirties the page). It is Query(WithPrefix(keyVals...))
// — a point cursor, see pointSource — with the answer path reported.
func (ix *Index) Lookup(project []string, keyVals ...tuple.Value) (tuple.Row, LookupResult, error) {
	return ix.LookupInto(nil, project, keyVals...)
}

// pointCursors recycles the cursors LookupInto reads through.
var pointCursors = sync.Pool{New: func() any { return new(Cursor) }}

// LookupInto is Lookup writing the projected row into dst when its
// capacity suffices (the returned row may still be a fresh slice when
// dst was too small). Together with the pooled cursor this makes a
// lookup allocation-free for callers that reuse the returned row across
// calls: a cache hit pays zero heap allocations, a miss only the
// strings and byte slices the row's values own.
//
// The returned row aliases dst's backing array; it is only valid until
// the next LookupInto with the same dst.
func (ix *Index) LookupInto(dst tuple.Row, project []string, keyVals ...tuple.Value) (tuple.Row, LookupResult, error) {
	if !ix.unique {
		return nil, LookupResult{}, fmt.Errorf("core: Lookup requires a unique index; use LookupAll on %q", ix.name)
	}
	c := pointCursors.Get().(*Cursor)
	defer func() {
		*c = Cursor{} // keeps nothing of this lookup, dst included
		pointCursors.Put(c)
	}()
	// The key values are copied in and the projection is never stored, so
	// neither escapes: a caller's variadic key costs no allocation.
	c.cfg.prefix = c.cfg.keep(keyVals)
	plan, err := ix.resolveProjection(project)
	if err != nil {
		return nil, LookupResult{}, err
	}
	key, err := ix.searchKey(c.ix.bounds[0][:0], c.cfg.prefix)
	if err != nil {
		return nil, LookupResult{}, err
	}
	ix.openPointSource(c, key, plan, nil)
	c.row = dst
	var (
		row tuple.Row
		res LookupResult
	)
	if c.Next() {
		row = c.row
		res = LookupResult{Found: true, RID: c.rid, CacheHit: c.stats.CacheHits > 0, CacheFilled: c.stats.CacheFills > 0}
		res.HeapAccess = !res.CacheHit
	}
	if err := c.Close(); err != nil {
		return nil, LookupResult{}, err
	}
	return row, res, nil
}

// LookupRID returns just the RID for a key, touching neither cache nor
// heap (the plain B+Tree lookup every engine has).
func (ix *Index) LookupRID(keyVals ...tuple.Value) (storage.RID, bool, error) {
	key, err := ix.searchKey(nil, keyVals)
	if err != nil {
		return storage.InvalidRID, false, err
	}
	packed, found, err := ix.tree.Search(key)
	if err != nil || !found {
		return storage.InvalidRID, false, err
	}
	rid := storage.UnpackRID(packed)
	if !ix.table.ridVisible(rid, snapLatest) {
		return storage.InvalidRID, false, nil // newest version deleted, entry awaits GC
	}
	return rid, true, nil
}

// LookupAll returns every row matching the key values on a non-unique
// index (or the single match on a unique one). It is a convenience
// wrapper over Query(WithPrefix(...)) that materializes the result;
// large matches should iterate the cursor instead.
func (ix *Index) LookupAll(keyVals ...tuple.Value) ([]tuple.Row, error) {
	cur, err := ix.Query(WithPrefix(keyVals...))
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	var rows []tuple.Row
	for cur.Next() {
		rows = append(rows, cur.Row().Clone())
	}
	return rows, cur.Err()
}

// WarmCache fills every leaf's cache with the rows its keys point at,
// hottest-first ordering being the caller's responsibility. It is the
// bulk version of the lazy fill path, used to set up experiments.
// Returns the number of entries installed.
//
// The bulk path is batched at both ends: per index leaf, the RIDs to
// warm are gathered, sorted by heap page, and fetched through
// heap.File.GetRun — one page pin and latch per distinct heap page
// instead of per row — and all scratch (RID/payload buffers, decoded
// row) is reused across leaves, so warming N entries costs O(1)
// allocations. Entries go in through admit, as a point cursor's fill.
func (ix *Index) WarmCache() (int, error) {
	if ix.cache == nil {
		return 0, fmt.Errorf("core: index %q has no cache", ix.name)
	}
	installed := 0
	need := fieldSet(ix.table.schema.NumFields(), ix.cachedFields) // all encodePayloadInto reads
	var (
		rowBuf  tuple.Row
		payload []byte
		rids    []storage.RID
		packs   []uint64
		visErr  error
	)
	err := ix.tree.VisitAllLeaves(func(l *btree.Leaf) bool {
		if !ix.cache.Prepare(l) {
			return true
		}
		// The budget is the page's slot capacity: *successful* installs
		// beyond it would evict entries installed moments ago, so the
		// fetch run stops once that many landed — but an entry that
		// fails to install (encode declined, slot contention) spends no
		// budget, exactly like the pre-batched warm loop.
		budget := ix.cache.SlotsIn(l)
		if budget <= 0 {
			return true
		}
		rids, packs = rids[:0], packs[:0]
		for i := 0; i < l.NumKeys(); i++ {
			packed := l.ValueAt(i)
			rids = append(rids, storage.UnpackRID(packed))
			packs = append(packs, packed)
		}
		// Heap-page order maximizes GetRun's per-page grouping; install
		// order within one leaf does not matter.
		sort.Sort(&ridsByPage{rids: rids, packs: packs})
		leafInstalled := 0
		gerr := ix.table.file.GetRun(rids, func(i int, rec []byte) bool {
			if leafInstalled >= budget {
				return false
			}
			row, derr := decodeFields(rowBuf, ix.table.schema, rec, need, nil)
			if derr != nil {
				visErr = derr
				return false
			}
			rowBuf = row
			if ix.admit(l, packs[i], row, &payload) {
				installed++
				leafInstalled++
			}
			return leafInstalled < budget
		})
		if gerr != nil {
			visErr = gerr
		}
		return visErr == nil
	})
	if err != nil {
		return installed, err
	}
	return installed, visErr
}

// admit installs row's cached fields as packed's §2.1 cache entry on l,
// encoding them in *buf (scratch: Insert copies the payload into the
// page). It is the one place a cache entry is written — a point cursor's
// fill after a heap answer and WarmCache's bulk load — and runs under
// the leaf's latch once idxcache.Cache.Prepare said its cache is usable.
func (ix *Index) admit(l *btree.Leaf, packed uint64, row tuple.Row, buf *[]byte) bool {
	payload, ok := ix.encodePayloadInto((*buf)[:0], row)
	if !ok {
		return false
	}
	*buf = payload[:0]
	return ix.cache.Insert(l, packed, payload)
}

// ridsByPage sorts the WarmCache gather by heap page, keeping the
// packed values aligned.
type ridsByPage struct {
	rids  []storage.RID
	packs []uint64
}

func (s *ridsByPage) Len() int { return len(s.rids) }
func (s *ridsByPage) Less(i, j int) bool {
	if s.rids[i].Page != s.rids[j].Page {
		return s.rids[i].Page < s.rids[j].Page
	}
	return s.rids[i].Slot < s.rids[j].Slot
}
func (s *ridsByPage) Swap(i, j int) {
	s.rids[i], s.rids[j] = s.rids[j], s.rids[i]
	s.packs[i], s.packs[j] = s.packs[j], s.packs[i]
}

// resolveProjection maps projected names to schema positions. nil
// projects every field. Resolved plans are cached in an immutable
// copy-on-write slice behind an atomic pointer, so the common case — a
// projection seen before — is a lock-free, allocation-free scan over a
// handful of entries. The returned slice must be treated as read-only.
func (ix *Index) resolveProjection(project []string) (*projPlan, error) {
	if project == nil {
		return ix.projAll, nil
	}
	if plans := ix.projPlans.Load(); plans != nil {
		for i := range *plans {
			p := &(*plans)[i]
			if sameStrings(project, p.names) {
				return p, nil
			}
		}
	}
	idx := make([]int, len(project))
	for i, name := range project {
		pos := ix.table.schema.Index(name)
		if pos < 0 {
			return nil, fmt.Errorf("core: projection field %q not in %s", name, ix.table.schema)
		}
		idx[i] = pos
	}
	plan := ix.buildProjPlan(append([]string(nil), project...), idx)
	for {
		old := ix.projPlans.Load()
		var next []projPlan
		if old != nil {
			// Another goroutine may have published this plan meanwhile.
			for i := range *old {
				p := &(*old)[i]
				if sameStrings(project, p.names) {
					return p, nil
				}
			}
			if len(*old) >= maxProjPlans {
				return &plan, nil // cache full: resolve without caching
			}
			next = make([]projPlan, len(*old)+1)
			copy(next, *old)
			next[len(*old)] = plan
		} else {
			next = []projPlan{plan}
		}
		if ix.projPlans.CompareAndSwap(old, &next) {
			// Return the published copy: it is immutable from here on.
			return &next[len(next)-1], nil
		}
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) || b == nil {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// growRow returns dst resized to n values, reusing its backing array
// when the capacity suffices.
func growRow(dst tuple.Row, n int) tuple.Row {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make(tuple.Row, n)
}

// assembleInto builds the projected row from key values and the cached
// payload by walking the plan's precomputed assembly steps, reusing
// dst's backing array when possible. Cached fields decode directly at
// their precomputed payload offsets — no intermediate slice, no
// per-call coverage discovery.
func (ix *Index) assembleInto(dst tuple.Row, keyVals []tuple.Value, payload []byte, plan *projPlan) (tuple.Row, bool) {
	if !plan.coverable {
		return nil, false
	}
	row := growRow(dst, len(plan.steps))
	for i, st := range plan.steps {
		if st.fromKey {
			row[i] = keyVals[st.src]
			continue
		}
		v, ok := ix.decodePayloadField(payload, st.src)
		if !ok {
			return nil, false
		}
		row[i] = v
	}
	return row, true
}

// decodePayloadField extracts the ci-th cached field from a payload
// (ok=false for one of the wrong width, or a kind it cannot hold).
func (ix *Index) decodePayloadField(payload []byte, ci int) (tuple.Value, bool) {
	if len(payload) != ix.payloadWidth {
		return tuple.Value{}, false
	}
	f := ix.table.schema.Field(ix.cachedFields[ci])
	if payload[0]&(1<<ci) != 0 {
		return tuple.Value{Kind: f.Kind, Null: true}, true
	}
	off := ix.payloadOff[ci]
	v := tuple.Value{Kind: f.Kind}
	switch f.Kind {
	case tuple.KindInt64, tuple.KindTimestamp:
		v.Int = int64(binary.LittleEndian.Uint64(payload[off:]))
	case tuple.KindFloat64:
		v.Float = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
	case tuple.KindInt32:
		v.Int = int64(int32(binary.LittleEndian.Uint32(payload[off:])))
	case tuple.KindInt16:
		v.Int = int64(int16(binary.LittleEndian.Uint16(payload[off:])))
	case tuple.KindInt8:
		v.Int = int64(int8(payload[off]))
	case tuple.KindBool:
		if payload[off] != 0 {
			v.Int = 1
		}
	case tuple.KindChar:
		end := off + fixedValueWidth(f)
		b := payload[off:end]
		for len(b) > 0 && b[len(b)-1] == 0 {
			b = b[:len(b)-1]
		}
		v.Str = string(b)
	default:
		return tuple.Value{}, false
	}
	return v, true
}

// projectRowInto projects row through projIdx, reusing dst's backing
// array when its capacity suffices.
func projectRowInto(dst tuple.Row, row tuple.Row, projIdx []int) tuple.Row {
	out := growRow(dst, len(projIdx))
	for i, pos := range projIdx {
		out[i] = row[pos]
	}
	return out
}

// encodePayloadInto serializes the cached fields of a row into the
// fixed payload layout — one null-bitmap byte, then each field's fixed
// bytes — appending into dst (the hot path
// passes pooled scratch; idxcache.Insert copies the payload into the
// page, so the buffer is immediately reusable).
func (ix *Index) encodePayloadInto(dst []byte, row tuple.Row) ([]byte, bool) {
	var buf []byte
	if cap(dst) >= ix.payloadWidth {
		buf = dst[:ix.payloadWidth]
		for i := range buf {
			buf[i] = 0
		}
	} else {
		buf = make([]byte, ix.payloadWidth)
	}
	off := 1
	for i, pos := range ix.cachedFields {
		v := row[pos]
		f := ix.table.schema.Field(pos)
		w := fixedValueWidth(f)
		if v.Null {
			buf[0] |= 1 << i
			off += w
			continue
		}
		switch f.Kind {
		case tuple.KindInt64, tuple.KindTimestamp:
			binary.LittleEndian.PutUint64(buf[off:], uint64(v.Int))
		case tuple.KindFloat64:
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v.Float))
		case tuple.KindInt32:
			binary.LittleEndian.PutUint32(buf[off:], uint32(int32(v.Int)))
		case tuple.KindInt16:
			binary.LittleEndian.PutUint16(buf[off:], uint16(int16(v.Int)))
		case tuple.KindInt8:
			buf[off] = byte(int8(v.Int))
		case tuple.KindBool:
			if v.Int != 0 {
				buf[off] = 1
			}
		case tuple.KindChar:
			copy(buf[off:off+w], v.Str)
		default:
			return nil, false
		}
		off += w
	}
	return buf, true
}

// prefixSuccessorInto returns the smallest byte string greater than
// every string with the given prefix, or nil if none exists (all 0xFF),
// built in dst's backing array when it fits.
func prefixSuccessorInto(dst, prefix []byte) []byte {
	end := append(dst[:0], prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
