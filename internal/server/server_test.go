package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// fixture starts a WAL-backed engine plus a server on a loopback
// listener and returns a dialed client. Callers own shutdown order.
type fixture struct {
	dir  string
	eng  *core.Engine
	srv  *server.Server
	addr string
}

func startServer(t testing.TB) *fixture {
	t.Helper()
	dir := t.TempDir()
	eng, err := core.NewEngine(core.Options{Path: filepath.Join(dir, "db")}, core.WithWAL())
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(l)
	return &fixture{dir: dir, eng: eng, srv: srv, addr: l.Addr().String()}
}

func (f *fixture) stop(t testing.TB) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := f.eng.Close(); err != nil {
		t.Fatalf("engine Close: %v", err)
	}
}

func kvFields() []client.Field {
	return []client.Field{
		{Name: "id", Kind: tuple.KindInt64},
		{Name: "val", Kind: tuple.KindString},
	}
}

func kvRow(id int64, val string) client.Row {
	return client.Row{tuple.Int64(id), tuple.String(val)}
}

func setupKV(t *testing.T, cl *client.Client) {
	t.Helper()
	if err := cl.CreateTable("kv", kvFields()...); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := cl.CreateIndex("kv", "by_id", []string{"id"}, true); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
}

func TestServerEndToEnd(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	setupKV(t, cl)

	var b client.Batch
	for i := 0; i < 100; i++ {
		b.Insert(kvRow(int64(i), fmt.Sprintf("v%03d", i)))
	}
	res, err := cl.Apply("kv", &b)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Applied != 100 {
		t.Fatalf("Applied = %d, want 100", res.Applied)
	}

	row, found, err := cl.Get("kv", "by_id", tuple.Int64(42))
	if err != nil || !found {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	if row[1].Str != "v042" {
		t.Errorf("Get row = %v", row)
	}
	if _, found, err := cl.Get("kv", "by_id", tuple.Int64(10_000)); err != nil || found {
		t.Errorf("Get missing key: found=%v err=%v", found, err)
	}

	// Range query, small pages, projection, reverse.
	rows, err := cl.Query("kv",
		client.WithIndex("by_id"),
		client.WithKeyRange(client.Row{tuple.Int64(10)}, client.Row{tuple.Int64(20)}),
		client.WithProjection("id"),
		client.WithReverse(),
		client.WithPageSize(3),
	)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	var got []int64
	for rows.Next() {
		if n := len(rows.Row()); n != 1 {
			t.Fatalf("projected row has %d fields", n)
		}
		got = append(got, rows.Row()[0].Int)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows.Err: %v", err)
	}
	rows.Close()
	if len(got) != 10 || got[0] != 19 || got[9] != 10 {
		t.Errorf("reverse range = %v", got)
	}

	// Limit via server-side cursor.
	rows, err = cl.Query("kv", client.WithIndex("by_id"), client.WithLimit(7))
	if err != nil {
		t.Fatalf("Query limit: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil || n != 7 {
		t.Fatalf("limit: n=%d err=%v", n, err)
	}

	// Update + delete by RID round trip.
	var wb client.Batch
	wb.Update(res.RIDs[5], kvRow(5, "updated"))
	wb.Delete(res.RIDs[6])
	wres, err := cl.Apply("kv", &wb)
	if err != nil || wres.Applied != 2 {
		t.Fatalf("update/delete: %+v err=%v", wres, err)
	}
	row, found, _ = cl.Get("kv", "by_id", tuple.Int64(5))
	if !found || row[1].Str != "updated" {
		t.Errorf("after update: found=%v row=%v", found, row)
	}
	if _, found, _ = cl.Get("kv", "by_id", tuple.Int64(6)); found {
		t.Error("deleted row still visible")
	}

	if err := cl.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	raw, err := cl.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	var st server.StatsSnapshot
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("stats JSON: %v", err)
	}
	if st.Requests == 0 || len(st.Tables) != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestApplyErrorAttribution: a batch mixing a duplicate key and good
// ops comes back with per-op errors — the dup fails, neighbors apply.
func TestApplyErrorAttribution(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	setupKV(t, cl)

	var seed client.Batch
	seed.Insert(kvRow(7, "orig"))
	if _, err := cl.Apply("kv", &seed); err != nil {
		t.Fatalf("seed: %v", err)
	}

	var b client.Batch
	b.Insert(kvRow(1, "a"))
	b.Insert(kvRow(7, "dup")) // duplicate key
	b.Insert(kvRow(2, "b"))
	res, err := cl.Apply("kv", &b)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.Applied != 2 {
		t.Errorf("Applied = %d, want 2", res.Applied)
	}
	if res.Err(0) != nil || res.Err(2) != nil {
		t.Errorf("neighbors failed: %v / %v", res.Err(0), res.Err(2))
	}
	if res.Err(1) == nil || !strings.Contains(res.Err(1).Error(), "duplicate") {
		t.Errorf("dup err = %v", res.Err(1))
	}
	if row, found, _ := cl.Get("kv", "by_id", tuple.Int64(7)); !found || row[1].Str != "orig" {
		t.Errorf("row 7 = found=%v %v, want original intact", found, row)
	}
}

// TestStorm drives ≥64 concurrent client connections mixing Apply and
// Query against one server under the coalescer, then checks the
// invariants: every acked key readable, exactly one winner per
// contended key, index row count == acked successes.
func TestStorm(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	setup, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	setupKV(t, setup)
	setup.Close()

	const (
		workers    = 64
		perWorker  = 30
		contendedN = 8 // keys every worker fights over
	)
	var (
		acked   atomic.Int64 // disjoint-key inserts acked
		dupWins atomic.Int64 // contended-key inserts acked
		wg      sync.WaitGroup
	)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(f.addr, client.WithPoolSize(1))
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perWorker; i++ {
				// Disjoint keyspace per worker, plus one contended key
				// per round on the first contendedN rounds.
				var b client.Batch
				key := int64(1000 + w*perWorker + i)
				b.Insert(kvRow(key, "w"))
				if i < contendedN {
					b.Insert(kvRow(int64(i), "contended"))
				}
				res, err := cl.Apply("kv", &b)
				if err != nil {
					errs <- fmt.Errorf("worker %d apply: %w", w, err)
					return
				}
				if res.Err(0) != nil {
					errs <- fmt.Errorf("worker %d disjoint key %d failed: %v", w, key, res.Err(0))
					return
				}
				acked.Add(1)
				if i < contendedN && res.Err(1) == nil {
					dupWins.Add(1)
				}
				// Interleave reads: point get of an acked key and an
				// occasional short scan.
				if _, found, err := cl.Get("kv", "by_id", tuple.Int64(key)); err != nil || !found {
					errs <- fmt.Errorf("worker %d read-own-write %d: found=%v err=%v", w, key, found, err)
					return
				}
				if i%10 == 0 {
					rows, err := cl.Query("kv", client.WithIndex("by_id"), client.WithLimit(5))
					if err != nil {
						errs <- fmt.Errorf("worker %d query: %w", w, err)
						return
					}
					for rows.Next() {
					}
					if err := rows.Err(); err != nil {
						errs <- fmt.Errorf("worker %d scan: %w", w, err)
						return
					}
					rows.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := acked.Load(); got != workers*perWorker {
		t.Fatalf("acked = %d, want %d", got, workers*perWorker)
	}
	// Exactly one winner per contended key.
	if got := dupWins.Load(); got != contendedN {
		t.Errorf("contended wins = %d, want %d", got, contendedN)
	}
	// Index row count equals total acked successes.
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	rows, err := cl.Query("kv", client.WithIndex("by_id"))
	if err != nil {
		t.Fatalf("final query: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("final scan: %v", err)
	}
	want := workers*perWorker + contendedN
	if n != want {
		t.Errorf("indexed rows = %d, want %d", n, want)
	}
	// Every op went through a cycle, and some cycle carried more than one
	// request. That jobs arriving behind a cycle in flight share the next
	// one is TestCoalescerParkedJobsShareNextCycle's to prove; here 64
	// writers behind one fsync at a time cannot all have run alone.
	st := f.srv.Stats()
	if wantOps := int64(workers * (perWorker + contendedN)); st.CoalescedOps != wantOps {
		t.Errorf("CoalescedOps = %d, want %d", st.CoalescedOps, wantOps)
	}
	if st.CoalescedCycles == 0 || st.CoalescedCycles >= workers*perWorker {
		t.Errorf("no sharing: %d cycles for %d requests", st.CoalescedCycles, workers*perWorker)
	}
}

// TestGracefulShutdown: every op acked before Shutdown must be
// readable after the engine reopens from disk — no acked write lost.
func TestGracefulShutdown(t *testing.T) {
	f := startServer(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	setupKV(t, cl)
	const n = 500
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wcl, err := client.Dial(f.addr, client.WithPoolSize(1))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer wcl.Close()
			for i := w; i < n; i += 8 {
				var b client.Batch
				b.Insert(kvRow(int64(i), fmt.Sprintf("v%d", i)))
				if res, err := wcl.Apply("kv", &b); err != nil || res.Applied != 1 {
					t.Errorf("apply %d: %+v err=%v", i, res, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cl.Close()
	f.stop(t) // Shutdown (drain + final checkpoint) then engine Close

	// Reopen from the same files: recovery + checkpoint must surface
	// every acked row.
	eng, err := core.NewEngine(core.Options{Path: filepath.Join(f.dir, "db")}, core.WithWAL())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer eng.Close()
	tb, err := eng.Table("kv")
	if err != nil {
		t.Fatalf("reopened table: %v", err)
	}
	ix, err := tb.Index("by_id")
	if err != nil {
		t.Fatalf("reopened index: %v", err)
	}
	for i := 0; i < n; i++ {
		row, lres, err := ix.Lookup(nil, tuple.Int64(int64(i)))
		if err != nil || !lres.Found {
			t.Fatalf("acked row %d lost after shutdown+reopen: found=%v err=%v", i, lres.Found, err)
		}
		if want := fmt.Sprintf("v%d", i); row[1].Str != want {
			t.Fatalf("row %d = %q, want %q", i, row[1].Str, want)
		}
	}
}

// TestShutdownIdempotent: double Shutdown and post-shutdown Serve are
// clean errors, not hangs or panics.
func TestShutdownIdempotent(t *testing.T) {
	f := startServer(t)
	ctx := context.Background()
	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if err := f.srv.ListenAndServe("127.0.0.1:0"); err == nil {
		t.Fatal("Serve after Shutdown succeeded")
	}
	f.eng.Close()
}

// TestCoalescingShares: with coalescing on, concurrent one-op applies
// from many connections produce fewer WAL appends than ops — shared
// batches under one group commit.
func TestCoalescingShares(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	setupKV(t, cl)
	cl.Close()

	const workers = 32
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(f.addr, client.WithPoolSize(1))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer cl.Close()
			for i := 0; i < perWorker; i++ {
				var b client.Batch
				b.Insert(kvRow(int64(w*perWorker+i), "x"))
				if _, err := cl.Apply("kv", &b); err != nil {
					t.Errorf("apply: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := f.srv.Stats()
	if st.CoalescedOps != workers*perWorker {
		t.Fatalf("CoalescedOps = %d, want %d", st.CoalescedOps, workers*perWorker)
	}
	if st.CoalescedCycles >= st.CoalescedOps {
		t.Errorf("no sharing: %d cycles for %d ops", st.CoalescedCycles, st.CoalescedOps)
	}
	t.Logf("coalescing: %d ops in %d cycles (%.1f ops/cycle), %d WAL appends, %d fsyncs",
		st.CoalescedOps, st.CoalescedCycles,
		float64(st.CoalescedOps)/float64(st.CoalescedCycles),
		st.WALAppends, st.WALSyncs)
}

// TestAdminHTTP: the HTTP listener serves admin only — stats list the
// tables the binary protocol created, a checkpoint answers 200 — and
// the JSON data plane it once had is gone.
func TestAdminHTTP(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	setupKV(t, cl)
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("http listen: %v", err)
	}
	go f.srv.ServeHTTP(hl)
	base := "http://" + hl.Addr().String()

	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	var st server.StatsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %v", resp.StatusCode, err)
	}
	if len(st.Tables) != 1 || st.Tables[0] != "kv" {
		t.Errorf("stats tables = %v", st.Tables)
	}

	for _, c := range []struct {
		method, path string
		want         int
	}{
		{"POST", "/v1/checkpoint", http.StatusOK},
		{"POST", "/v1/tables", http.StatusNotFound},
		{"GET", "/v1/tables/kv/rows", http.StatusNotFound},
	} {
		req, err := http.NewRequest(c.method, base+c.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, resp.StatusCode, c.want)
		}
	}
}

// TestParallelQueryOverWire: a client-requested parallel scan streams
// the same rows as serial — ordered mode in global key order, unordered
// mode the same multiset — and an absurd worker count is clamped
// server-side rather than rejected.
func TestParallelQueryOverWire(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	setupKV(t, cl)
	const n = 2000
	var b client.Batch
	for i := 0; i < n; i++ {
		b.Insert(kvRow(int64(i), fmt.Sprintf("v%04d", i)))
	}
	if res, err := cl.Apply("kv", &b); err != nil || res.Applied != n {
		t.Fatalf("seed: %+v err=%v", res, err)
	}
	drain := func(opts ...client.QueryOption) []int64 {
		t.Helper()
		rows, err := cl.Query("kv", append([]client.QueryOption{client.WithIndex("by_id")}, opts...)...)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		defer rows.Close()
		var ids []int64
		for rows.Next() {
			ids = append(ids, rows.Row()[0].Int)
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("rows.Err: %v", err)
		}
		return ids
	}
	serial := drain()
	if len(serial) != n {
		t.Fatalf("serial scan returned %d rows", len(serial))
	}
	ordered := drain(client.WithParallel(4), client.WithPageSize(64))
	if len(ordered) != n {
		t.Fatalf("ordered parallel returned %d rows", len(ordered))
	}
	for i, id := range ordered {
		if id != serial[i] {
			t.Fatalf("ordered parallel row %d = %d, want %d", i, id, serial[i])
		}
	}
	unordered := drain(client.WithParallel(4), client.WithUnordered(), client.WithPageSize(64))
	seen := make(map[int64]int, n)
	for _, id := range unordered {
		seen[id]++
	}
	for _, id := range serial {
		if seen[id] != 1 {
			t.Fatalf("unordered parallel served id %d %d times", id, seen[id])
		}
	}
	// Parallel degree far beyond the server's cores: clamped, not an error.
	clamped := drain(client.WithParallel(10_000))
	if len(clamped) != n {
		t.Fatalf("clamped parallel returned %d rows", len(clamped))
	}
	// Parallel with reverse is invalid in core; the server must surface
	// the error on the stream instead of hanging.
	rows, err := cl.Query("kv", client.WithIndex("by_id"),
		client.WithParallel(4), client.WithReverse())
	if err != nil {
		t.Fatalf("Query open: %v", err)
	}
	for rows.Next() {
	}
	if rows.Err() == nil {
		t.Fatal("parallel+reverse streamed without error")
	}
	rows.Close()
}

// TestPipelinedOutOfOrder: many in-flight requests on ONE connection
// complete correctly (request IDs demultiplex).
func TestPipelinedOutOfOrder(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr, client.WithPoolSize(1))
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	setupKV(t, cl)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				key := int64(g*100 + i)
				var b client.Batch
				b.Insert(kvRow(key, fmt.Sprintf("g%d", g)))
				res, err := cl.Apply("kv", &b)
				if err != nil || res.Applied != 1 {
					t.Errorf("apply: %+v err=%v", res, err)
					return
				}
				row, found, err := cl.Get("kv", "by_id", tuple.Int64(key))
				if err != nil || !found || row[1].Str != fmt.Sprintf("g%d", g) {
					t.Errorf("get %d: found=%v row=%v err=%v", key, found, row, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOversizedPageRequest: the page size is the client's to choose, the
// frame limit is not. A full-row scan of more than wire.MaxFrame bytes
// asked for as one page must arrive as several, each closed on its
// encoded size, and the server must outlive the request — before pages
// were bounded by bytes, the handler goroutine panicked in FinishFrame
// and took the process with it.
func TestOversizedPageRequest(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	schema, err := tuple.NewSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "pad", Kind: tuple.KindString},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	tb, err := f.eng.CreateTable("big", schema)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	const rows, padLen = 10_500, 2048 // 20.5 MiB of pad alone
	pad := strings.Repeat("p", padLen-8)
	for lo := 0; lo < rows; lo += 500 {
		var b core.Batch
		for id := lo; id < lo+500; id++ {
			b.Insert(tuple.Row{tuple.Int64(int64(id)), tuple.String(fmt.Sprintf("%08d", id) + pad)})
		}
		if _, err := tb.Apply(&b); err != nil {
			t.Fatalf("load: %v", err)
		}
	}

	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	req := wire.QueryReq{Table: "big", PageSize: 1 << 30}
	if _, err := conn.Write(wire.AppendFrame(nil, 1, wire.TQuery, req.Marshal(nil))); err != nil {
		t.Fatalf("write: %v", err)
	}
	br := bufio.NewReader(conn)
	var (
		buf   []byte
		page  wire.QueryPage
		seen  = make([]bool, rows)
		pages int
	)
	for !page.Last {
		conn.SetReadDeadline(time.Now().Add(30 * time.Second))
		fr, nb, err := wire.ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("after %d pages: %v", pages, err)
		}
		buf = nb
		if fr.Type != wire.TQueryPage {
			t.Fatalf("frame type %d after %d pages", fr.Type, pages)
		}
		if len(fr.Payload) > wire.MaxPooledBuffer+2*padLen {
			t.Fatalf("page %d: %d payload bytes, bound is %d + one row", pages, len(fr.Payload), wire.MaxPooledBuffer)
		}
		if err := page.Unmarshal(fr.Payload); err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		pages++
		for _, r := range page.Rows {
			id := r[0].Int
			if id < 0 || id >= rows || seen[id] || len(r[1].Str) != padLen || r[1].Str[:8] != fmt.Sprintf("%08d", id) {
				t.Fatalf("page %d: bad or repeated row id %d", pages, id)
			}
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("row %d never arrived (%d pages)", id, pages)
		}
	}
	if min := rows * padLen / (wire.MaxPooledBuffer + 2*padLen); pages < min {
		t.Fatalf("%d rows arrived in %d pages, want at least %d", rows, pages, min)
	}

	// The server is still there, for this connection's owner and others.
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial after the scan: %v", err)
	}
	defer cl.Close()
	got, err := cl.Query("big", client.WithPageSize(1<<30), client.WithLimit(100))
	if err != nil {
		t.Fatalf("Query after the scan: %v", err)
	}
	defer got.Close()
	n := 0
	for got.Next() {
		n++
	}
	if err := got.Err(); err != nil || n != 100 {
		t.Fatalf("Query after the scan: %d rows, %v", n, err)
	}
}
