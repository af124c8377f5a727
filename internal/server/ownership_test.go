package server_test

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Buffer-ownership tests. Every buffer on the served path is pooled, so
// a bug of the "kept a slice past its release" kind reads plausible
// stale data most of the time. The wire poison hook makes it read 0xDB
// instead: with it on, every frame buffer and every scratch row is
// overwritten the moment it returns to a pool (core's poison hook does
// the same to the write pipelines' scratch), and these tests check
// every row they read — a broken "copy out before release" fails them
// at once instead of once in a blue moon.

func poisonReleased(t *testing.T) {
	wire.PoisonReleased(true)
	core.PoisonScratch(true)
	t.Cleanup(func() { wire.PoisonReleased(false); core.PoisonScratch(false) })
}

// currentItem reads id's full row and RID through a one-row query.
func currentItem(q interface {
	Query(string, ...client.QueryOption) (*client.Rows, error)
}, id int64) (ver int, rid uint64, err error) {
	rows, err := q.Query("items", client.WithIndex("by_id"), client.WithPrefix(client.Int64(id)),
		client.WithRIDs(), client.WithLimit(1))
	if err != nil {
		return 0, 0, err
	}
	defer rows.Close()
	if !rows.Next() {
		return 0, 0, fmt.Errorf("id %d: not found: %v", id, rows.Err())
	}
	ver, err = checkItem(rows.Row(), id, false)
	return ver, rows.RID(), err
}

// TestPoisonedPipelinedStorm: 16 goroutines pipeline Gets, covered and
// full-row Queries, raw Applies and transactions over 2 connections,
// with released buffers poisoned, and validate every row they read.
func TestPoisonedPipelinedStorm(t *testing.T) {
	poisonReleased(t)
	f := startServer(t)
	defer f.stop(t)
	const (
		n       = 448 // rows that plain reads, scans and raw updates share
		txnRows = 64  // rows [n, n+txnRows): touched by transactions only
		workers = 16
		rounds  = 40
	)
	setupItems(t, f.eng, n+txnRows)
	cl, err := client.Dial(f.addr, client.WithPoolSize(2))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errc <- stormWorker(cl, g, n, txnRows, workers, rounds)
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Error(err)
		}
	}
	if pins := f.eng.Pool().PinnedFrames(); pins != 0 {
		t.Errorf("%d buffer frames still pinned after the storm", pins)
	}
}

// stormWorker reads anywhere in [0, n) and writes only the ids it owns
// (id mod workers == g), so every version it writes is the one it read
// plus one. Its transactions stay on the owned rows of [n, n+txnRows),
// which no plain read of another worker touches: a read outside a
// transaction can miss a row a commit is replacing, between the commit
// stamping the old version dead and its entry naming the new one (a
// known engine defect, see benchmark/README.md), and that is not what is
// tested here. A raw update's relocation no longer opens such a window:
// the old copy is freed only after its entries are repointed.
func stormWorker(cl *client.Client, g, n, txnRows, workers, rounds int) error {
	x := uint64(g)*0x9E3779B97F4A7C15 + 1
	next := func(mod int) int64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int64(x % uint64(mod))
	}
	own := func() int64 { return next(n/workers)*int64(workers) + int64(g) }
	for r := 0; r < rounds; r++ {
		// Point reads, both shapes.
		id := next(n)
		row, found, err := cl.Get("items", "by_id", client.Int64(id))
		if err != nil || !found {
			return fmt.Errorf("worker %d: Get %d: found=%v err=%v", g, id, found, err)
		}
		if _, err := checkItem(row, id, false); err != nil {
			return fmt.Errorf("worker %d: Get: %w", g, err)
		}
		id = next(n)
		if row, err = coveredPoint(cl, id); err != nil {
			return fmt.Errorf("worker %d: covered %d: %w", g, id, err)
		}
		if _, err := checkItem(row, id, true); err != nil {
			return fmt.Errorf("worker %d: covered: %w", g, err)
		}
		// A multi-page scan of full rows (strings and all).
		lo := next(n - 40)
		rows, err := cl.Query("items", client.WithIndex("by_id"),
			client.WithKeyRange(client.Row{client.Int64(lo)}, client.Row{client.Int64(lo + 40)}),
			client.WithPageSize(16))
		if err != nil {
			return fmt.Errorf("worker %d: scan: %w", g, err)
		}
		want := lo
		for rows.Next() {
			if _, err := checkItem(rows.Row(), want, false); err != nil {
				rows.Close()
				return fmt.Errorf("worker %d: scan: %w", g, err)
			}
			want++
		}
		if err := rows.Err(); err != nil || want != lo+40 {
			return fmt.Errorf("worker %d: scan [%d,%d) ended at %d: %v", g, lo, lo+40, want, err)
		}
		// A raw one-op update of an owned row.
		id = own()
		ver, rid, err := currentItem(cl, id)
		if err != nil {
			return fmt.Errorf("worker %d: %w", g, err)
		}
		var b client.Batch
		b.Update(rid, itemRow(id, ver+1))
		if res, err := cl.Apply("items", &b); err != nil || res.Applied != 1 {
			return fmt.Errorf("worker %d: Apply %d: %v %v", g, id, err, res.Err(0))
		}
		if got, _, err := currentItem(cl, id); err != nil || got != ver+1 {
			return fmt.Errorf("worker %d: id %d after update: ver %d, want %d: %v", g, id, got, ver+1, err)
		}
		// A transaction over another owned row: the staged row must
		// outlive the request that carried it.
		if r%4 == 0 {
			id = int64(n) + next(txnRows/workers)*int64(workers) + int64(g)
			tx, err := cl.Begin()
			if err != nil {
				return fmt.Errorf("worker %d: Begin: %w", g, err)
			}
			ver, rid, err := currentItem(tx, id)
			if err != nil {
				tx.Abort()
				return fmt.Errorf("worker %d: txn read: %w", g, err)
			}
			var tb client.Batch
			tb.Update(rid, itemRow(id, ver+1))
			if res, err := tx.Apply("items", &tb); err != nil || res.Applied != 1 {
				tx.Abort()
				return fmt.Errorf("worker %d: txn stage %d: %v %v", g, id, err, res.Err(0))
			}
			// Other requests recycle the staging request's buffers before
			// the commit reads the staged row.
			if _, _, err := cl.Get("items", "by_id", client.Int64(next(n))); err != nil {
				tx.Abort()
				return fmt.Errorf("worker %d: Get: %w", g, err)
			}
			if err := tx.Commit(); err != nil && !errors.Is(err, client.ErrTxnConflict) {
				return fmt.Errorf("worker %d: Commit: %w", g, err)
			} else if err == nil {
				if got, _, err := currentItem(cl, id); err != nil || got != ver+1 {
					return fmt.Errorf("worker %d: id %d after commit: ver %d, want %d: %v", g, id, got, ver+1, err)
				}
			}
		}
	}
	return nil
}

// TestPoisonedTxnStagedRows: a transaction's Apply requests are decoded
// as views of their frames, and those frames are released — poisoned —
// as each Apply is answered, long before the commit lands the rows.
// Other requests recycle the buffers in between. The commit must land
// exactly the rows that were staged, index entries included.
func TestPoisonedTxnStagedRows(t *testing.T) {
	poisonReleased(t)
	f := startServer(t)
	defer f.stop(t)
	const n = 64
	rids := setupItems(t, f.eng, n)
	cl, err := client.Dial(f.addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	churn := func(id int64) {
		t.Helper()
		if _, err := coveredPoint(cl, id); err != nil {
			t.Fatal(err)
		}
		var b client.Batch
		b.Update(rids[id], itemRow(id, 9))
		res, err := cl.Apply("items", &b)
		if err != nil || res.Applied != 1 {
			t.Fatalf("raw Apply %d: %v %v", id, err, res.Err(0))
		}
		rids[id] = res.RIDs[0]
	}
	tx, err := cl.Begin()
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// Three staged Applies: ids 0-7 move to version 1, ids n..n+7 are new
	// at version 5, id 8 goes; ids 32 and up take raw updates meanwhile.
	for round := 0; round < 3; round++ {
		var b client.Batch
		switch round {
		case 0:
			for id := int64(0); id < 8; id++ {
				b.Update(rids[id], itemRow(id, 1))
			}
		case 1:
			for id := int64(n); id < n+8; id++ {
				b.Insert(itemRow(id, 5))
			}
		case 2:
			b.Delete(rids[8])
		}
		if res, err := tx.Apply("items", &b); err != nil || res.Applied != b.Len() {
			t.Fatalf("stage %d: %v %+v", round, err, res)
		}
		for id := int64(32 + 8*round); id < int64(40+8*round); id++ {
			churn(id)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	want := func(id int64) (ver int, found bool) {
		switch {
		case id < 8:
			return 1, true
		case id == 8:
			return 0, false
		case id >= n:
			return 5, true
		case id >= 32 && id < 56:
			return 9, true
		}
		return 0, true
	}
	for id := int64(0); id < n+8; id++ {
		wantVer, wantFound := want(id)
		row, found, err := cl.Get("items", "by_id", client.Int64(id))
		if err != nil || found != wantFound {
			t.Fatalf("Get %d: found=%v err=%v, want found=%v", id, found, err, wantFound)
		}
		if !found {
			continue
		}
		if ver, err := checkItem(row, id, false); err != nil || ver != wantVer {
			t.Fatalf("id %d: version %d, want %d: %v", id, ver, wantVer, err)
		}
	}
	tb, err := f.eng.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Rows(); got != n+8-1 {
		t.Fatalf("table holds %d rows, want %d", got, n+8-1)
	}
}

// TestPoisonedCoalescedApplyStorm: writers on their own connections
// insert and then update rows through one-op Applies, so their requests
// share coalesced cycles whose batches view every follower's frame.
// Every frame is poisoned as its request is answered; every acked row
// must read back exactly as written.
func TestPoisonedCoalescedApplyStorm(t *testing.T) {
	poisonReleased(t)
	f := startServer(t)
	defer f.stop(t)
	setupItems(t, f.eng, 0)
	const writers, perWriter = 8, 30
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errc <- stormWriter(f.addr, int64(w*perWriter), perWriter)
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	for id := int64(0); id < writers*perWriter; id++ {
		row, found, err := cl.Get("items", "by_id", client.Int64(id))
		if err != nil || !found {
			t.Fatalf("Get %d: found=%v err=%v", id, found, err)
		}
		if ver, err := checkItem(row, id, false); err != nil || ver != 1 {
			t.Fatalf("id %d: version %d, want 1: %v", id, ver, err)
		}
	}
	if pins := f.eng.Pool().PinnedFrames(); pins != 0 {
		t.Errorf("%d buffer frames still pinned after the storm", pins)
	}
}

// stormWriter inserts ids [first, first+n) one Apply each on its own
// connection, then updates each to version 1 through the RID its insert
// was answered with.
func stormWriter(addr string, first int64, n int) error {
	cl, err := client.Dial(addr, client.WithPoolSize(1))
	if err != nil {
		return err
	}
	defer cl.Close()
	rids := make([]uint64, n)
	for ver := 0; ver < 2; ver++ {
		for i := range rids {
			id := first + int64(i)
			var b client.Batch
			if ver == 0 {
				b.Insert(itemRow(id, 0))
			} else {
				b.Update(rids[i], itemRow(id, 1))
			}
			res, err := cl.Apply("items", &b)
			if err != nil || res.Applied != 1 || res.Err(0) != nil {
				return fmt.Errorf("id %d version %d: %v %v", id, ver, err, res.Err(0))
			}
			rids[i] = res.RIDs[0]
		}
	}
	return nil
}

// TestPoisonedCatalogNames: a table's and an index's names go into the
// catalog, so CreateTable and CreateIndex decode them as copies, not as
// views of their frames. After the frames are poisoned and recycled,
// every name the catalog holds must still read as sent.
func TestPoisonedCatalogNames(t *testing.T) {
	poisonReleased(t)
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	const table, index = "catalog_table", "catalog_index"
	fields := []client.Field{
		{Name: "catalog_id", Kind: tuple.KindInt64},
		{Name: "catalog_name", Kind: tuple.KindString},
	}
	if err := cl.CreateTable(table, fields...); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := cl.CreateIndex(table, index, []string{"catalog_name", "catalog_id"}, true); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	for i := int64(0); i < 16; i++ { // recycle the frames both requests came in
		var b client.Batch
		b.Insert(client.Row{client.Int64(i), client.String(fmt.Sprintf("row-%02d", i))})
		if res, err := cl.Apply(table, &b); err != nil || res.Applied != 1 {
			t.Fatalf("Apply %d: %v %v", i, err, res.Err(0))
		}
	}

	if got := f.eng.Tables(); len(got) != 1 || got[0] != table {
		t.Fatalf("catalog tables = %q, want [%q]", got, table)
	}
	tb, err := f.eng.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	for i, fl := range tb.Schema().Fields() {
		if fl.Name != fields[i].Name {
			t.Fatalf("field %d = %q, want %q", i, fl.Name, fields[i].Name)
		}
	}
	ix, err := tb.Index(index)
	if err != nil || ix.Name() != index {
		t.Fatalf("index %q: %v", index, err)
	}
	if got := ix.KeyFieldNames(); len(got) != 2 || got[0] != "catalog_name" || got[1] != "catalog_id" {
		t.Fatalf("index fields = %q", got)
	}
	row, found, err := cl.Get(table, index, client.String("row-07"), client.Int64(7))
	if err != nil || !found || row[0].Int != 7 {
		t.Fatalf("Get through the index: %v found=%v err=%v", row, found, err)
	}
}

// TestPoisonedCorpusReplay drives the wire fuzz corpus through a live
// server whose released buffers are poisoned: hostile payloads take the
// error paths, which must release exactly what they own.
func TestPoisonedCorpusReplay(t *testing.T) {
	poisonReleased(t)
	replayFuzzCorpus(t)
}

// TestPoisonedSlowStream consumes a multi-page stream slowly while
// other requests on the same connection recycle buffers between its
// rows: a streamed row must be the stream's own memory, not a view of a
// response buffer someone else now owns.
func TestPoisonedSlowStream(t *testing.T) {
	poisonReleased(t)
	f := startServer(t)
	defer f.stop(t)
	const n = 200
	setupItems(t, f.eng, n)
	cl, err := client.Dial(f.addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	rows, err := cl.Query("items", client.WithIndex("by_id"), client.WithPageSize(48)) // 4 full pages + the last
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer rows.Close()
	var prev tuple.Row
	id := int64(0)
	for rows.Next() {
		row := rows.Row()
		// Churn: each of these takes buffers from the pools and returns
		// them poisoned while row is still in use.
		other := (id*7 + 3) % n
		got, found, err := cl.Get("items", "by_id", client.Int64(other))
		if err != nil || !found {
			t.Fatalf("Get %d: found=%v err=%v", other, found, err)
		}
		if _, err := checkItem(got, other, false); err != nil {
			t.Fatal(err)
		}
		if _, err := coveredPoint(cl, other); err != nil {
			t.Fatal(err)
		}
		if _, err := checkItem(row, id, false); err != nil {
			t.Fatalf("streamed row after churn: %v", err)
		}
		// Within one page, earlier rows stay valid too.
		if prev != nil && id%48 != 0 {
			if _, err := checkItem(prev, id-1, false); err != nil {
				t.Fatalf("previous row of the same page: %v", err)
			}
		}
		prev = row
		id++
	}
	if err := rows.Err(); err != nil || id != n {
		t.Fatalf("stream ended at %d of %d: %v", id, n, err)
	}
}

// TestPoisonedTxnRecycleStorm: workers pipeline transactions over one
// connection — snapshot reads, staged updates, commits and aborts — so
// the connection recycles each finished transaction into the next
// Begin, while side connections open transactions, stage into them and
// drop. Every committed version must read back, and nothing an abort or
// a disconnect staged.
func TestPoisonedTxnRecycleStorm(t *testing.T) {
	poisonReleased(t)
	f := startServer(t)
	defer f.stop(t)
	const (
		workers   = 8
		perWorker = 4 // ids g, g+workers, ... belong to worker g
		rounds    = 24
		droppers  = 2
		n         = workers * perWorker
	)
	setupItems(t, f.eng, n+droppers)
	cl, err := client.Dial(f.addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	versions := make([]int, n) // what each id's committed version must be
	var wg sync.WaitGroup
	errc := make(chan error, workers+droppers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errc <- recycleWorker(cl, g, workers, perWorker, rounds, versions)
		}(g)
	}
	for d := 0; d < droppers; d++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			errc <- dropWorker(f.addr, id, rounds/4)
		}(int64(n + d))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := int64(0); id < n+droppers; id++ {
		want := 0
		if id < n {
			want = versions[id]
		}
		if ver, _, err := currentItem(cl, id); err != nil || ver != want {
			t.Fatalf("id %d: version %d, want %d: %v", id, ver, want, err)
		}
	}
	if pins := f.eng.Pool().PinnedFrames(); pins != 0 {
		t.Errorf("%d buffer frames still pinned after the storm", pins)
	}
}

// recycleWorker runs rounds transactions over worker g's own ids: read
// the row through the snapshot, stage its next version, commit (or,
// every third round, abort), and read the outcome back outside.
func recycleWorker(cl *client.Client, g, workers, perWorker, rounds int, versions []int) error {
	for r := 0; r < rounds; r++ {
		id := int64(g + workers*(r%perWorker))
		tx, err := cl.Begin()
		if err != nil {
			return fmt.Errorf("worker %d: Begin: %w", g, err)
		}
		ver, rid, err := currentItem(tx, id)
		if err != nil || ver != versions[id] {
			tx.Abort()
			return fmt.Errorf("worker %d: txn read of %d: version %d, want %d: %v", g, id, ver, versions[id], err)
		}
		var b client.Batch
		b.Update(rid, itemRow(id, ver+1))
		if res, err := tx.Apply("items", &b); err != nil || res.Applied != 1 {
			tx.Abort()
			return fmt.Errorf("worker %d: stage %d: %v %v", g, id, err, res.Err(0))
		}
		if r%3 == 2 {
			err = tx.Abort()
		} else if err = tx.Commit(); err == nil {
			versions[id]++
		}
		if err != nil {
			return fmt.Errorf("worker %d: finish %d: %w", g, id, err)
		}
		if got, _, err := currentItem(cl, id); err != nil || got != versions[id] {
			return fmt.Errorf("worker %d: id %d after round %d: version %d, want %d: %v", g, id, r, got, versions[id], err)
		}
	}
	return nil
}

// dropWorker opens a connection, stages an update of id in a
// transaction and drops the connection with the transaction open, times
// times over: the server aborts what it staged.
func dropWorker(addr string, id int64, times int) error {
	for i := 0; i < times; i++ {
		cl, err := client.Dial(addr, client.WithPoolSize(1))
		if err != nil {
			return err
		}
		tx, err := cl.Begin()
		if err != nil {
			cl.Close()
			return err
		}
		_, rid, err := currentItem(tx, id)
		if err == nil {
			var b client.Batch
			b.Update(rid, itemRow(id, 100+i))
			_, err = tx.Apply("items", &b)
		}
		cl.Close()
		if err != nil {
			return fmt.Errorf("dropper %d: %w", id, err)
		}
	}
	return nil
}

// rawConn speaks the wire protocol directly, so a test can send what
// the client never would: frames naming a transaction that has finished.
type rawConn struct {
	nc  net.Conn
	br  *bufio.Reader
	buf []byte
	seq uint64
}

// rawReply is a request's last response frame, plus the rows of a query.
type rawReply struct {
	typ     uint8
	payload []byte
	rows    int
}

// exchange writes every request at once — pipelined, so the server
// handles them concurrently — and returns each one's reply, in order.
func (r *rawConn) exchange(reqs ...wire.Frame) ([]rawReply, error) {
	var out []byte
	ids := make(map[uint64]int, len(reqs))
	for i, q := range reqs {
		r.seq++
		ids[r.seq] = i
		out = wire.AppendFrame(out, r.seq, q.Type, q.Payload)
	}
	if _, err := r.nc.Write(out); err != nil {
		return nil, err
	}
	replies := make([]rawReply, len(reqs))
	for pending := len(reqs); pending > 0; {
		r.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		fr, buf, err := wire.ReadFrame(r.br, r.buf)
		if err != nil {
			return nil, err
		}
		r.buf = buf
		i, ok := ids[fr.ReqID]
		if !ok {
			return nil, fmt.Errorf("reply to unknown request %d", fr.ReqID)
		}
		rp := &replies[i]
		rp.typ, rp.payload = fr.Type, append(rp.payload[:0], fr.Payload...)
		if fr.Type == wire.TQueryPage {
			var page wire.QueryPage
			if err := page.Unmarshal(fr.Payload); err != nil {
				return nil, err
			}
			rp.rows += len(page.Rows)
			if !page.Last {
				continue
			}
		}
		pending--
	}
	return replies, nil
}

// TestPoisonedStaleTxnIDs: a connection recycles each finished
// transaction into its next Begin, but ids are never reused — so frames
// that name a finished transaction, pipelined beside the live one that
// now runs in its connTxn, are refused as unknown and touch nothing.
func TestPoisonedStaleTxnIDs(t *testing.T) {
	poisonReleased(t)
	f := startServer(t)
	defer f.stop(t)
	setupItems(t, f.eng, 0)
	nc, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	rc := &rawConn{nc: nc, br: bufio.NewReader(nc)}

	frame := func(typ uint8, payload []byte) wire.Frame { return wire.Frame{Type: typ, Payload: payload} }
	insert := func(txn uint64, id int64) wire.Frame {
		m := wire.ApplyReq{Table: "items", TxnID: txn, Ops: []wire.Op{{Kind: wire.OpInsert, Row: itemRow(id, 0)}}}
		return frame(wire.TApply, m.Marshal(nil))
	}
	query := func(txn uint64) wire.Frame {
		m := wire.QueryReq{Table: "items", Index: "by_id", TxnID: txn}
		return frame(wire.TQuery, m.Marshal(nil))
	}
	finish := func(typ uint8, txn uint64) wire.Frame {
		m := wire.TxnFinishReq{TxnID: txn}
		return frame(typ, m.Marshal(nil))
	}
	begin := func() uint64 {
		t.Helper()
		rp, err := rc.exchange(frame(wire.TTxnBegin, nil))
		if err != nil || rp[0].typ != wire.TTxnBeginResp {
			t.Fatalf("Begin: %v %+v", err, rp)
		}
		var m wire.TxnBeginResp
		if err := m.Unmarshal(rp[0].payload); err != nil {
			t.Fatal(err)
		}
		return m.TxnID
	}
	refused := func(rp rawReply, what string, txn uint64) {
		t.Helper()
		var m wire.ErrResp
		if rp.typ != wire.TErr || m.Unmarshal(rp.payload) != nil || m.Msg != fmt.Sprintf("server: unknown transaction %d", txn) {
			t.Fatalf("%s naming finished transaction %d: reply type %d %q, want unknown transaction", what, txn, rp.typ, m.Msg)
		}
	}

	const rounds = 16
	prev := begin()
	if rp, err := rc.exchange(finish(wire.TTxnCommit, prev)); err != nil || rp[0].typ != wire.TOK {
		t.Fatalf("first Commit: %v %+v", err, rp)
	}
	for r := int64(0); r < rounds; r++ {
		cur := begin()
		if cur == prev {
			t.Fatalf("transaction id %d reused", cur)
		}
		// Row 2r is staged by the live transaction, row 2r+1 by frames
		// naming the finished one; finishing the finished one again must
		// not finish the live one.
		rp, err := rc.exchange(
			insert(prev, 2*r+1), query(prev), finish(wire.TTxnCommit, prev), finish(wire.TTxnAbort, prev),
			insert(cur, 2*r), query(cur))
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		refused(rp[0], "Apply", prev)
		refused(rp[1], "Query", prev)
		refused(rp[2], "Commit", prev)
		refused(rp[3], "Abort", prev)
		var ar wire.ApplyResp
		if rp[4].typ != wire.TApplyResp || ar.Unmarshal(rp[4].payload) != nil || ar.Applied != 1 {
			t.Fatalf("round %d: live Apply: reply type %d %+v", r, rp[4].typ, ar)
		}
		if rp[5].typ != wire.TQueryPage || rp[5].rows != int(r) {
			t.Fatalf("round %d: live snapshot read %d rows (reply type %d), want %d", r, rp[5].rows, rp[5].typ, r)
		}
		if rp, err := rc.exchange(finish(wire.TTxnCommit, cur)); err != nil || rp[0].typ != wire.TOK {
			t.Fatalf("round %d: Commit: %v %+v", r, err, rp)
		}
		prev = cur
	}

	tb, err := f.eng.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := tb.Index("by_id")
	if err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 2*rounds; id++ {
		row, res, err := ix.Lookup(nil, tuple.Int64(id))
		if err != nil || res.Found != (id%2 == 0) {
			t.Fatalf("id %d: found=%v err=%v, want found=%v", id, res.Found, err, id%2 == 0)
		}
		if res.Found {
			if _, err := checkItem(row, id, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := tb.Rows(); got != rounds {
		t.Fatalf("table holds %d rows, want %d", got, rounds)
	}
}
