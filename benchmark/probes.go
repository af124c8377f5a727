package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wal"
	"repro/internal/wire"
)

// timed calls fn in `samples` batches of `batch` calls and returns
// the median cost of one call in ns. i counts calls from 0.
func timed(samples, batch int, fn func(i int)) float64 {
	per := make([]float64, samples)
	i := 0
	for s := range per {
		start := time.Now()
		for range batch {
			fn(i)
			i++
		}
		per[s] = float64(time.Since(start)) / float64(batch)
	}
	return medianFloat(per)
}

// timedPrep is timed with one call per sample and an untimed prep
// step before each.
func timedPrep(samples int, prep, fn func(i int)) float64 {
	per := make([]float64, samples)
	for i := range per {
		prep(i)
		start := time.Now()
		fn(i)
		per[i] = float64(time.Since(start))
	}
	return medianFloat(per)
}

// scratch is the throwaway stack the mutating probes run against: a
// FileDisk, pool, tree, heap file and log of their own, in the run's
// data directory, so a probe never changes the data being verified
// and its fsyncs hit the same filesystem as the engine's.
type scratch struct {
	disk *storage.FileDisk
	pool *buffer.Pool
	tree *btree.Tree
	heap *heap.File
	log  *wal.Log

	// A second, 16-frame pool over 256 pages of the same disk: cycling
	// through them misses (and evicts a clean frame) on every fetch.
	missPool  *buffer.Pool
	missPages []storage.PageID

	key  []byte
	rec  []byte
	rids []storage.RID // scratch heap records to update
	nKey uint64
}

func newScratch(dir string) (*scratch, error) {
	sc := &scratch{}
	var err error
	if sc.disk, err = storage.NewFileDisk(filepath.Join(dir, "scratch.db"), storage.DefaultPageSize); err != nil {
		return nil, err
	}
	if sc.pool, err = buffer.NewPool(sc.disk, 2048); err != nil {
		return nil, err
	}
	if sc.tree, err = btree.New(sc.pool); err != nil {
		return nil, err
	}
	if sc.heap, err = heap.NewFile(sc.pool); err != nil {
		return nil, err
	}
	if sc.log, err = wal.Open(filepath.Join(dir, "scratch.wal")); err != nil {
		return nil, err
	}
	if sc.missPool, err = buffer.NewPool(sc.disk, 16); err != nil {
		return nil, err
	}
	for range 256 {
		fr, err := sc.missPool.NewPage()
		if err != nil {
			return nil, err
		}
		sc.missPages = append(sc.missPages, fr.ID())
		sc.missPool.Unpin(fr, true)
	}
	if err := sc.missPool.FlushAll(); err != nil {
		return nil, err
	}
	return sc, nil
}

func (sc *scratch) close() {
	if sc.log != nil {
		sc.log.Close()
	}
	if sc.disk != nil {
		sc.disk.Close()
	}
}

// freshKey returns a key the scratch tree has not seen: a counter run
// through a multiplicative hash so inserts land all over the tree.
func (sc *scratch) freshKey() []byte {
	sc.nKey++
	sc.key = binary.BigEndian.AppendUint64(sc.key[:0], sc.nKey*0x9E3779B97F4A7C15)
	return sc.key
}

// wireSize is the request + response bytes one op of each kind puts
// on the wire, frame headers included, computed from the messages the
// client and server build for it.
func wireSize(kind opKind) int {
	const id = 123_456
	frame := func(payload []byte) int { return len(wire.AppendFrame(nil, 1, 0, payload)) }
	full, cov := rowFor(id, 1), tuple.Row{tuple.Int64(id), tuple.Int32(scoreOf(id, 1)), tuple.Bool(true)}
	key := tuple.Row{tuple.Int64(id)}
	apply := func(ops ...wire.Op) int {
		req := wire.ApplyReq{Table: tableName, Ops: ops}
		resp := wire.ApplyResp{Applied: len(ops), RIDs: make([]uint64, len(ops))}
		return frame(req.Marshal(nil)) + frame(resp.Marshal(nil))
	}
	query := func(req wire.QueryReq, rows int, row tuple.Row, rids bool) int {
		page := wire.QueryPage{Last: true}
		for range rows {
			page.Rows = append(page.Rows, row)
			if rids {
				page.RIDs = append(page.RIDs, 1<<20)
			}
		}
		return frame(req.Marshal(nil)) + frame(page.Marshal(nil))
	}
	switch kind {
	case opGet:
		req := wire.GetReq{Table: tableName, Index: indexName, Key: key}
		resp := wire.GetResp{Found: true, RID: 1 << 20, Row: full}
		return frame(req.Marshal(nil)) + frame(resp.Marshal(nil))
	case opCovered:
		return query(wire.QueryReq{Table: tableName, Index: indexName, Prefix: key, Projection: coveredFields, Limit: 1}, 1, cov, false)
	case opScan:
		return query(wire.QueryReq{Table: tableName, Index: indexName, Lo: key, Hi: key, Projection: coveredFields}, scanRows, cov, false)
	case opInsert:
		return apply(wire.Op{Kind: wire.OpInsert, Row: full})
	case opUpdate, opUpdateLive:
		return apply(wire.Op{Kind: wire.OpUpdate, RID: 1 << 20, Row: full})
	case opDelete:
		return apply(wire.Op{Kind: wire.OpDelete, RID: 1 << 20})
	case opTxn:
		begin := wire.TxnBeginResp{TxnID: 1, StartTS: 1 << 20}
		finish := wire.TxnFinishReq{TxnID: 1}
		up := wire.Op{Kind: wire.OpUpdate, RID: 1 << 20, Row: full}
		return frame(nil) + frame(begin.Marshal(nil)) +
			query(wire.QueryReq{Table: tableName, Index: indexName, Lo: key, Hi: key, WithRIDs: true, TxnID: 1}, 2, full, true) +
			apply(up, up) + frame(finish.Marshal(nil)) + frame(nil)
	}
	return 0
}

// framesPerOp is how many request frames the client sends for one op
// of each kind (a transaction: begin, query, apply, commit).
func framesPerOp(kind opKind) int64 {
	if kind == opTxn {
		return 4
	}
	return 1
}

// replayStats are the counts the embedded replay gathers besides its
// spans.
type replayStats struct {
	covered, cacheHits int64 // covered LookupInto calls and their CacheHit share
	queryNs, queryRows int64
	walBytes, walUser  int64 // log growth and user bytes over replayed inserts and updates
}

// meanUserBytes is the mean logical payload of a row (bodies average
// 100 B).
const meanUserBytes = fixedBytes + nameLen + 100

// replay runs up to n more ops of connection 0's stream embedded,
// stopping early once budget has passed (durable writes pay two
// fsyncs per replayed op, one real and one on the scratch log): each op
// is the core call the server would make for it, under a core.* root
// span, followed by the decomposed direct calls into the layers below
// as its children — read probes against the live tree, heap and
// cache, mutating probes against the scratch stack.
func replay(in *instance, n int, budget time.Duration, rec *recorder, sc *scratch) (replayStats, error) {
	var st replayStats
	w := in.workers[0]
	w.be = &coreBackend{eng: in.eng, tbl: in.tbl, ix: in.ix}
	w.spans, w.rec = &coreSpan, rec
	w.resetCounts()
	stream := in.streams[0]
	schema := in.tbl.Schema()
	tree, hp, cache := in.ix.Tree(), in.tbl.Heap(), in.ix.Cache()
	var (
		key, recBuf, payload []byte
		row, dst             tuple.Row
		probeErr             error
	)
	keep := func(err error) {
		if err != nil && probeErr == nil {
			probeErr = err
		}
	}
	deadline := time.Now().Add(budget)
	for i := 0; i < n && (i%64 != 0 || time.Now().Before(deadline)); i++ {
		o := stream[w.next%len(stream)]
		walBefore := in.eng.WALStats().Bytes
		w.step(stream)
		root := rec.spans[rec.cur]
		switch o.kind {
		case opGet, opCovered:
			id := tuple.Int64(o.arg)
			rec.probe("tuple.encode_key", func() {
				var err error
				key, err = tuple.EncodeKey(key[:0], id)
				keep(err)
			})
			var packed uint64
			rec.probe("btree.search", func() {
				var found bool
				var err error
				packed, found, err = tree.Search(key)
				keep(err)
				if !found {
					keep(fmt.Errorf("btree.search probe: id %d not found", o.arg))
				}
			})
			if o.kind == opGet {
				rec.probe("heap.get", func() {
					var err error
					recBuf, err = hp.GetInto(recBuf[:0], storage.UnpackRID(packed))
					keep(err)
				})
				rec.probe("tuple.decode", func() {
					var err error
					row, _, err = tuple.DecodeInto(row[:0], schema, recBuf)
					keep(err)
				})
			} else {
				st.queryNs += root.Dur
				st.queryRows++
			}
			// The same key once more as a covered LookupInto — the call
			// the §2.1 cache was built for — as an op of its own.
			start := time.Now()
			rec.open("core.lookup_covered", start)
			out, res, err := in.ix.LookupInto(dst[:0], coveredFields, id)
			rec.close(time.Now())
			keep(err)
			if err == nil {
				dst = out
				keep(checkCovered(out, o.arg))
				st.covered++
				if res.CacheHit {
					st.cacheHits++
				}
			}
			keep(tree.VisitLeaf(key, func(l *btree.Leaf) {
				rec.probe("idxcache.lookup", func() {
					if cache.Prepare(l) {
						payload, _ = cache.LookupInto(payload[:0], l, packed)
					}
				})
			}))
		case opScan:
			st.queryNs += root.Dur
			st.queryRows += scanRows
			lo := min(o.arg, w.rows-scanRows)
			start, _ := tuple.EncodeKey(nil, tuple.Int64(lo))
			end, _ := tuple.EncodeKey(nil, tuple.Int64(lo+scanRows))
			rec.probe("btree.cursor", func() {
				c := tree.NewCursor(start, end)
				for c.Next() {
				}
				keep(c.Err())
				c.Close()
			})
		case opInsert, opUpdate, opUpdateLive, opDelete:
			if grew := in.eng.WALStats().Bytes - walBefore; grew > 0 && o.kind != opDelete {
				st.walBytes += grew
				st.walUser += meanUserBytes
			}
			if o.kind == opDelete {
				break
			}
			r := rowFor(o.arg%int64(w.rows), 1)
			rec.probe("tuple.encode", func() {
				var err error
				sc.rec, err = tuple.Encode(schema, r, sc.rec[:0])
				keep(err)
			})
			if o.kind == opInsert || len(sc.rids) == 0 {
				var rids [1]storage.RID
				rec.probe("heap.insertrun", func() {
					_, err := sc.heap.InsertRun([][]byte{sc.rec}, rids[:])
					keep(err)
				})
				sc.rids = append(sc.rids, rids[0])
				rec.probe("btree.insert", func() {
					_, err := sc.tree.Insert(sc.freshKey(), rids[0].Pack())
					keep(err)
				})
			} else {
				i := int(uint64(o.arg) % uint64(len(sc.rids)))
				rec.probe("heap.update", func() {
					var err error
					sc.rids[i], err = sc.heap.Update(sc.rids[i], sc.rec)
					keep(err)
				})
			}
			var lsn uint64
			rec.probe("wal.append", func() {
				var err error
				lsn, err = sc.log.Append(1, sc.rec)
				keep(err)
			})
			rec.probe("wal.commit", func() { keep(sc.log.Commit(lsn)) })
		}
	}
	if w.failed > 0 {
		return st, fmt.Errorf("embedded replay: %d of %d ops failed: %w", w.failed, w.attempted, w.firstErr)
	}
	return st, probeErr
}

// microProbes times the layers' public functions directly, on this
// workload's own rows and keys, and sets the metrics that need no op
// stream. Mutating calls go to the scratch stack.
func microProbes(ms *metricSet, in *instance, sc *scratch) error {
	const samples, batch = 101, 64
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	schema := in.tbl.Schema()
	stream := in.streams[0]
	// idAt walks the stream's read keys, so probes see the workload's
	// key distribution; write-only streams fall back to their draws.
	// Ids the run deleted are skipped, so every probe key is live.
	idAt := func(i int) int64 {
		id := int64(uint64(stream[i%len(stream)].arg)%uint64(in.workers[0].rows-hotKeys)) + hotKeys
		for !in.m.alive[id] {
			id++
		}
		return id
	}
	rows := make([]tuple.Row, 256)
	for i := range rows {
		rows[i] = rowFor(idAt(i), 1)
	}

	// tuple
	var rec []byte
	var encBytes int
	for _, r := range rows {
		var err error
		rec, err = tuple.Encode(schema, r, rec[:0])
		keep(err)
		encBytes += len(rec)
	}
	ms.set("tuple.bytes_per_row", float64(encBytes)/float64(len(rows)))
	ms.set("tuple.encode_ns", timed(samples, batch, func(i int) {
		rec, _ = tuple.Encode(schema, rows[i%len(rows)], rec[:0])
	}))
	var dec tuple.Row
	ms.set("tuple.decode_ns", timed(samples, batch, func(int) {
		dec, _, _ = tuple.DecodeInto(dec[:0], schema, rec)
	}))
	var key []byte
	ms.set("tuple.encode_key_ns", timed(samples, batch, func(i int) {
		key, _ = tuple.EncodeKey(key[:0], tuple.Int64(idAt(i)))
	}))
	ms.set("tuple.decode_field_ns", timed(samples, batch, func(int) {
		_, err := tuple.DecodeField(schema, rec, colScore)
		keep(err)
	}))

	// wire, on a Get response carrying one of the workload's rows
	resp := wire.GetResp{Found: true, RID: 1 << 20, Row: rows[0]}
	payload := resp.Marshal(nil)
	var frame []byte
	ms.set("wire.frame_encode_ns", timed(samples, batch, func(i int) {
		frame = wire.AppendFrame(frame[:0], uint64(i), wire.TGetResp, payload)
	}))
	var rd bytes.Reader
	var buf []byte
	ms.set("wire.frame_decode_ns", timed(samples, batch, func(int) {
		rd.Reset(frame)
		var err error
		_, buf, err = wire.ReadFrame(&rd, buf)
		keep(err)
	}))
	var rowBuf []byte
	ms.set("wire.row_encode_ns", timed(samples, batch, func(i int) {
		rowBuf = wire.AppendRow(rowBuf[:0], rows[i%len(rows)])
	}))
	_, skip := binary.Uvarint(rowBuf) // AppendRow leads with the value count
	ms.set("wire.row_decode_ns", timed(samples, batch, func(int) {
		for off := skip; off < len(rowBuf); {
			_, n, err := wire.DecodeValue(rowBuf[off:])
			if err != nil {
				keep(err)
				return
			}
			off += n
		}
	}))
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	const decodes = 4096
	for range decodes {
		var m wire.GetResp
		keep(m.Unmarshal(payload))
	}
	runtime.ReadMemStats(&mem1)
	ms.set("wire.allocs_per_row", float64(mem1.Mallocs-mem0.Mallocs)/decodes)

	// btree: searches and cursor steps on the live tree, inserts and
	// leaf-grouped runs on the scratch tree
	tree := in.ix.Tree()
	ms.set("btree.search_ns", timed(samples, batch, func(i int) {
		key, _ = tuple.EncodeKey(key[:0], tuple.Int64(idAt(i)))
		_, found, err := tree.Search(key)
		keep(err)
		if !found {
			keep(fmt.Errorf("btree.search: id %d not found", idAt(i)))
		}
	}))
	perStep := make([]float64, samples)
	for i := range perStep {
		lo := min(idAt(i), in.workers[0].rows-scanRows)
		start, _ := tuple.EncodeKey(nil, tuple.Int64(lo))
		end, _ := tuple.EncodeKey(nil, tuple.Int64(lo+scanRows))
		steps := 0
		t0 := time.Now()
		c := tree.NewCursor(start, end)
		for c.Next() {
			steps++
		}
		keep(c.Err())
		c.Close()
		perStep[i] = ratio(float64(time.Since(t0)), float64(steps))
	}
	ms.set("btree.cursor_step_ns", medianFloat(perStep))
	ms.set("btree.insert_ns", timed(samples, batch, func(i int) {
		_, err := sc.tree.Insert(sc.freshKey(), uint64(i))
		keep(err)
	}))
	run := make([]btree.RunEntry, 256)
	ms.set("btree.applyrun_ns_per_entry", timedPrep(samples, func(int) {
		for j := range run {
			run[j] = btree.RunEntry{Key: append(run[j].Key[:0], sc.freshKey()...), Value: uint64(j), Op: btree.RunUpsert}
		}
		sort.Slice(run, func(a, b int) bool { return bytes.Compare(run[a].Key, run[b].Key) < 0 })
	}, func(int) {
		_, err := sc.tree.ApplyRun(run)
		keep(err)
	})/float64(len(run)))

	// buffer, on the scratch pools: re-fetching one resident page, and
	// cycling 256 pages through 16 frames
	hot := sc.missPages[0]
	ms.set("buffer.fetch_hit_ns", timed(samples, batch, func(int) {
		fr, err := sc.missPool.Fetch(hot)
		if err != nil {
			keep(err)
			return
		}
		sc.missPool.Unpin(fr, false)
	}))
	before := sc.missPool.Stats().Misses
	ms.set("buffer.fetch_miss_ns", timed(samples, batch, func(i int) {
		fr, err := sc.missPool.Fetch(sc.missPages[1+i%(len(sc.missPages)-1)])
		if err != nil {
			keep(err)
			return
		}
		sc.missPool.Unpin(fr, false)
	}))
	if got := sc.missPool.Stats().Misses - before; got != samples*batch {
		keep(fmt.Errorf("buffer.fetch_miss: %d misses in %d fetches", got, samples*batch))
	}

	// heap: reads at the live rows' RIDs, writes on the scratch file
	hp := in.tbl.Heap()
	ms.set("heap.get_ns", timed(samples, batch, func(i int) {
		var err error
		rec, err = hp.GetInto(rec[:0], storage.UnpackRID(in.m.rid[idAt(i)]))
		keep(err)
	}))
	rec, _ = tuple.Encode(schema, rows[0], rec[:0])
	recs := make([][]byte, batch)
	for i := range recs {
		recs[i] = rec
	}
	rids := make([]storage.RID, batch)
	ms.set("heap.insertrun_ns_per_rec", timed(samples, 1, func(int) {
		_, err := sc.heap.InsertRun(recs, rids)
		keep(err)
	})/batch)
	ms.set("heap.update_ns", timed(samples, batch, func(i int) {
		var err error
		rids[i%batch], err = sc.heap.Update(rids[i%batch], rec)
		keep(err)
	}))

	// wal, on the scratch log: this sandbox's append cost and fsync floor
	ms.set("wal.append_ns", timed(samples, batch, func(int) {
		_, err := sc.log.Append(1, rec)
		keep(err)
	}))
	ms.set("wal.commit_us", timed(samples, 1, func(int) {
		lsn, err := sc.log.Append(1, rec)
		keep(err)
		keep(sc.log.Commit(lsn))
	})/1e3)

	// storage, on a scratch FileDisk
	disk, err := storage.NewFileDisk(filepath.Join(in.dir, "scratch-io.db"), storage.DefaultPageSize)
	if err != nil {
		return err
	}
	defer disk.Close()
	page := make([]byte, storage.DefaultPageSize)
	var pages []storage.PageID
	for range 256 {
		id, err := disk.Allocate()
		if err != nil {
			return err
		}
		pages = append(pages, id)
		keep(disk.WritePage(id, page))
	}
	ms.set("storage.write_page_us", timed(samples, batch, func(i int) {
		keep(disk.WritePage(pages[i*97%len(pages)], page))
	})/1e3)
	ms.set("storage.read_page_us", timed(samples, batch, func(i int) {
		keep(disk.ReadPage(pages[i*97%len(pages)], page))
	})/1e3)
	ms.set("storage.sync_us", timedPrep(samples, func(i int) {
		keep(disk.WritePage(pages[i%len(pages)], page))
	}, func(int) {
		keep(disk.Sync())
	})/1e3)
	return firstErr
}
