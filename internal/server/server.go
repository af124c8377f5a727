// Package server is nblb's network frontend: a pipelined
// length-prefixed binary protocol (internal/wire) over TCP, the one
// data protocol; an admin-only HTTP listener (stats, checkpoint); and —
// the load-bearing piece — a cross-connection write coalescer that
// drains many connections' small batches into shared core.Batches so
// thousands of writers ride the leaf-grouped ApplyRun path and share
// one WAL group commit.
//
// Concurrency model, per connection: one reader goroutine reads each
// frame into a pooled request context and starts a capped handler
// goroutine for it (so a pipelined connection completes out of order);
// one writer goroutine drains a response channel through a
// bufio.Writer, flushing only when the channel runs empty, which
// batches many responses into one syscall. Handlers never touch the
// socket — they encode complete frames into pooled buffers and hand
// them to the writer, so interleaved Query pages and Apply acks cannot
// tear each other. Who owns which buffer when is tabulated in
// ARCHITECTURE.md ("Buffer ownership"); the one rule is: copy out
// before release.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wire"
)

const (
	// maxCycleOps closes a coalesced cycle once it holds this many ops.
	maxCycleOps = 128
	// defaultPageSize is the rows per query page of a request that names
	// none (client.WithPageSize names its own).
	defaultPageSize = 256
	// maxInflight caps concurrently executing requests per connection;
	// further pipelined frames wait in the kernel buffer.
	maxInflight = 64
)

// Config configures a Server.
type Config struct {
	// Engine is the embedded engine to serve. Required; the server
	// does not open or close it.
	Engine *core.Engine
	// NoCoalesce makes every ApplyReq a cycle of its own: requests never
	// wait for one another and each pays its own group commit. It is the
	// direct leg of the serve sweep, not a tuning knob.
	NoCoalesce bool
}

// Stats are the server's monotonic counters (atomic; read via
// Server.Stats or the TStats request).
type Stats struct {
	Conns           atomic.Int64 // connections accepted
	Requests        atomic.Int64 // frames dispatched
	CoalescedCycles atomic.Int64 // coalescer drain cycles (shared batches)
	CoalescedOps    atomic.Int64 // ops applied through shared batches
}

// StatsSnapshot is the JSON shape of TStats / GET /v1/stats.
type StatsSnapshot struct {
	Conns           int64    `json:"conns"`
	Requests        int64    `json:"requests"`
	CoalescedCycles int64    `json:"coalesced_cycles"`
	CoalescedOps    int64    `json:"coalesced_ops"`
	WALAppends      int64    `json:"wal_appends"`
	WALSyncs        int64    `json:"wal_syncs"`
	WALBytes        int64    `json:"wal_bytes"`
	Tables          []string `json:"tables"`
}

// Server serves an engine over TCP (binary protocol) and optionally an
// admin HTTP listener. Create with New, start with Serve/ListenAndServe,
// stop with Shutdown.
type Server struct {
	cfg   Config
	eng   *core.Engine
	stats Stats

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	coal      map[string]*coalescer
	httpSrvs  []*http.Server
	closed    bool

	wg sync.WaitGroup // accept loops + connections
}

// New creates a Server over an open engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	return &Server{
		cfg:       cfg,
		eng:       cfg.Engine,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
		coal:      make(map[string]*coalescer),
	}, nil
}

// Stats returns a point-in-time snapshot of server + WAL counters.
func (s *Server) Stats() StatsSnapshot {
	w := s.eng.WALStats()
	return StatsSnapshot{
		Conns:           s.stats.Conns.Load(),
		Requests:        s.stats.Requests.Load(),
		CoalescedCycles: s.stats.CoalescedCycles.Load(),
		CoalescedOps:    s.stats.CoalescedOps.Load(),
		WALAppends:      w.Appends,
		WALSyncs:        w.Syncs,
		WALBytes:        w.Bytes,
		Tables:          s.eng.Tables(),
	}
}

// ListenAndServe listens on addr (TCP) and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts connections on l until the listener is closed (by
// Shutdown). It returns nil after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already shut down")
	}
	s.listeners[l] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, l)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.stats.Conns.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Shutdown drains the server gracefully: stop accepting, close the
// read side of every connection (in-flight requests complete and
// their responses flush — coalescer cycles run on handler goroutines,
// so a drained handler set is a drained coalescer), then run a final
// Engine.Checkpoint so every acked write is in the data file
// regardless of sync policy. If ctx expires first, remaining
// connections are severed, but handlers still finish and the
// checkpoint still runs — acked ops are never dropped by a timeout.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	https := s.httpSrvs
	s.mu.Unlock()

	for _, l := range ls {
		l.Close()
	}
	for _, hs := range https {
		hs.Shutdown(ctx)
	}
	for _, c := range conns {
		c.closeRead()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var ctxErr error
	select {
	case <-done:
	case <-ctx.Done():
		ctxErr = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}

	if err := s.eng.Checkpoint(); err != nil {
		return err
	}
	return ctxErr
}

// applyOps routes a decoded batch through the table's coalescer,
// waits for it to land and writes its attributed result into out,
// reusing out's slices.
func (s *Server) applyOps(table string, ops []wire.Op, out *wire.ApplyResp) error {
	tb, err := s.eng.Table(table)
	if err != nil {
		return err
	}
	if len(ops) == 0 {
		return errors.New("server: empty batch")
	}
	s.coalescerFor(table, tb).apply(ops, out)
	return nil
}

// stageOps appends decoded wire ops to a core batch. The batch aliases
// the ops' rows.
func stageOps(b *core.Batch, ops []wire.Op) {
	for _, op := range ops {
		switch op.Kind {
		case wire.OpInsert:
			b.Insert(op.Row)
		case wire.OpUpdate:
			b.Update(storage.UnpackRID(op.RID), op.Row)
		case wire.OpDelete:
			b.Delete(storage.UnpackRID(op.RID))
		}
	}
}

func (s *Server) coalescerFor(name string, tb *core.Table) *coalescer {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.coal[name]
	if !ok {
		c = &coalescer{
			land: func(res *core.Result, b *core.Batch) error {
				return tb.ApplyInto(res, b, core.WithResultRIDs())
			},
			maxOps: maxCycleOps,
			solo:   s.cfg.NoCoalesce,
			stats:  &s.stats,
		}
		s.coal[name] = c
	}
	return c
}

// --- connection ---

type conn struct {
	s    *Server
	nc   net.Conn
	outc chan *wire.Buffer // sealed response frames; the writer releases them
	sem  chan struct{}
	hwg  sync.WaitGroup // in-flight handlers
	wwg  sync.WaitGroup // writer goroutine

	// Open snapshot transactions, scoped to this connection. A dropped
	// connection aborts them all (serve's epilogue), so an abandoned
	// transaction can never pin the GC watermark forever. Ids are never
	// reused; the connTxns behind them are — idle keeps the last finished
	// one for beginTxn (the client pins a transaction to one connection,
	// so a connection rarely has two open at once).
	txnMu  sync.Mutex
	txns   map[uint64]*connTxn
	txnSeq uint64
	idle   *connTxn
}

// connTxn is a core transaction, held inline so a connection recycles
// both, with the server-side use accounting the engine cannot do
// itself: core documents that cursors must be drained before
// Commit/Abort (finishing releases the snapshot that protects their
// versions from GC), but a pipelined client can race TTxnCommit or
// TTxnAbort against an in-flight snapshot Query or a staging Apply. The
// users counter turns that race into a wait — finishTxn blocks until
// every handler using the transaction is done with it, so the snapshot
// stays pinned for exactly as long as a cursor can still visit its
// versions, and the Txn is recycled only once nobody holds it.
type connTxn struct {
	txn   core.Txn
	users sync.WaitGroup // handlers resolved through useTxn and not yet done
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		s:  s,
		nc: nc,
		// Sized so a full window of handlers (maxInflight) streaming a
		// few pages each rarely blocks on the writer.
		outc: make(chan *wire.Buffer, 256),
		sem:  make(chan struct{}, maxInflight),
	}
}

// closeRead unblocks the reader loop without severing the write side,
// so in-flight responses still reach the client during shutdown.
func (c *conn) closeRead() {
	type readCloser interface{ CloseRead() error }
	if rc, ok := c.nc.(readCloser); ok {
		rc.CloseRead()
		return
	}
	c.nc.SetReadDeadline(time.Now())
}

// request is the recycled context one request owns from its frame's
// arrival to its handler's return: the frame as read, the decoded
// message, and the scratch its handler needs. A warm request serves a
// Get without allocating at all.
//
// Ownership: the reader goroutine fills in and frame, then hands the
// request to its handler goroutine, which decodes, answers into a
// separate pooled wire.Buffer (owned by the writer once queued) and
// releases the request. Nothing in it may be referenced after release:
// the hot messages' strings and bytes are views of in, so whoever needs
// a decoded value for longer copies it first — the engine encodes a
// write's rows before Apply returns, and a transaction stages copies
// (core.Txn.Apply keeps nothing of its batch). A query's cursor is the
// request's too, and its rows are views of the cursor's scratch: each is
// encoded into its page before the next is read, and the cursor is
// closed before release.
type request struct {
	c     *conn
	run   func() // rq.handle, bound once: `go rq.run()` builds no closure
	in    []byte // the frame; frame.Payload aliases it
	frame wire.Frame

	// Decoded messages of the hot request types, views of in. Unmarshal
	// reuses their slices and names; the rare types decode into handler
	// locals, as copies.
	get    wire.GetReq
	query  wire.QueryReq
	apply  wire.ApplyReq
	result wire.ApplyResp // the Apply's attributed outcome
	batch  core.Batch     // a transaction's Apply, staged from

	cur  core.Cursor // a query's, reopened by each (QueryInto); zeroed on release
	rids []uint64    // RIDs of the query page being built
}

var requestPool sync.Pool // of *request

func getRequest() *request {
	rq, _ := requestPool.Get().(*request)
	if rq == nil {
		rq = new(request)
		rq.run = rq.handle
	}
	return rq
}

// maxPooledOps bounds the decoded batch a pooled request keeps, as
// wire.MaxPooledBuffer bounds its bytes.
const maxPooledOps = 64

// release returns the request to the pool. Slices keep their capacity
// (up to the pool bounds); under the wire poison hook their contents
// are overwritten first. The closed cursor keeps nothing: reopening
// zeroes it anyway, so what its last query reached (index, plan, heap
// buffers) would only stay reachable from the pool.
func (rq *request) release() {
	// One assignment each: a tuple assignment would build the ~3 KB zero
	// Cursor as a temporary in this frame, and the handler's goroutine
	// would copy its stack to make room.
	rq.c, rq.frame = nil, wire.Frame{}
	rq.cur = core.Cursor{}
	rq.in = wire.Recycle(rq.in)
	rq.get.Key = wire.RecycleRow(rq.get.Key)
	rq.query.Lo = wire.RecycleRow(rq.query.Lo)
	rq.query.Hi = wire.RecycleRow(rq.query.Hi)
	rq.query.Prefix = wire.RecycleRow(rq.query.Prefix)
	if ops := rq.apply.Ops[:cap(rq.apply.Ops)]; len(ops) > maxPooledOps {
		rq.apply.Ops, rq.batch = nil, core.Batch{}
	} else {
		for i := range ops {
			ops[i].Row = wire.RecycleRow(ops[i].Row)
		}
		rq.batch.Reset()
	}
	requestPool.Put(rq)
}

func (c *conn) serve() {
	c.wwg.Add(1)
	go c.writeLoop()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	for {
		rq := getRequest()
		f, buf, err := wire.ReadFrame(br, rq.in)
		rq.in = buf
		if err != nil {
			rq.release()
			break
		}
		rq.c, rq.frame = c, f
		c.s.stats.Requests.Add(1)
		// The semaphore is acquired here, on the reader, so a connection
		// that pipelines past maxInflight backpressures in the kernel
		// instead of being disconnected.
		c.sem <- struct{}{}
		c.hwg.Add(1)
		go rq.run()
	}
	c.hwg.Wait()
	// All handlers have returned, so nobody uses a transaction any more.
	c.txnMu.Lock()
	for id, ct := range c.txns {
		ct.txn.Abort()
		delete(c.txns, id)
	}
	c.txnMu.Unlock()
	close(c.outc)
	c.wwg.Wait()
	c.nc.Close()
}

// beginTxn opens a transaction — in the idle connTxn when the connection
// has one — and registers it under a fresh connection-local id.
func (c *conn) beginTxn() (id, startTS uint64) {
	c.txnMu.Lock()
	defer c.txnMu.Unlock()
	ct := c.idle
	if ct != nil {
		c.idle = nil
	} else {
		ct = new(connTxn)
	}
	c.s.eng.BeginInto(&ct.txn)
	c.txnSeq++
	if c.txns == nil {
		c.txns = make(map[uint64]*connTxn)
	}
	c.txns[c.txnSeq] = ct
	return c.txnSeq, ct.txn.StartTS()
}

// useTxn resolves a connection-local transaction id for a handler that
// stages into it or reads through it; the caller calls users.Done once
// it is done with the transaction (for a cursor: after Close). An id is
// registered under the lock finishTxn removes it under, so a finished —
// perhaps already recycled — transaction is never resolved.
func (c *conn) useTxn(id uint64) (*connTxn, error) {
	c.txnMu.Lock()
	defer c.txnMu.Unlock()
	ct := c.txns[id]
	if ct == nil {
		return nil, fmt.Errorf("server: unknown transaction %d", id)
	}
	ct.users.Add(1)
	return ct, nil
}

// finishTxn commits or aborts a transaction: it leaves the registry,
// every handler still using it (a streaming cursor, a staging Apply)
// finishes, and once Commit or Abort has returned its connTxn is idle.
func (c *conn) finishTxn(payload []byte, commit bool) error {
	var m wire.TxnFinishReq
	if err := m.Unmarshal(payload); err != nil {
		return err
	}
	c.txnMu.Lock()
	ct := c.txns[m.TxnID]
	delete(c.txns, m.TxnID)
	c.txnMu.Unlock()
	if ct == nil {
		return fmt.Errorf("server: unknown transaction %d", m.TxnID)
	}
	ct.users.Wait()
	var err error
	if commit {
		err = ct.txn.Commit()
	} else {
		ct.txn.Abort()
	}
	c.txnMu.Lock()
	if c.idle == nil {
		c.idle = ct
	}
	c.txnMu.Unlock()
	return err
}

// writeLoop is the only goroutine that touches the socket's write side
// and the last owner of every response buffer: once the bytes are in
// the bufio.Writer the buffer returns to its pool.
func (c *conn) writeLoop() {
	defer c.wwg.Done()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var werr error
	for b := range c.outc {
		// After a write error keep draining, so handlers never block on a
		// dead socket.
		if werr == nil {
			if _, werr = bw.Write(b.B); werr == nil && len(c.outc) == 0 {
				werr = bw.Flush()
			}
		}
		b.Release()
	}
	if werr == nil {
		bw.Flush()
	}
}

// send seals the response frame a handler built in b (wire.NewFrame,
// then b.B = m.Marshal(b.B)) and queues it for the writer, which owns b
// from here on.
func (c *conn) send(b *wire.Buffer, reqID uint64, typ uint8) {
	b.Seal(reqID, typ)
	c.outc <- b
}

func (c *conn) ack(reqID uint64) { c.send(wire.NewFrame(), reqID, wire.TOK) }

func (c *conn) sendErr(reqID uint64, err error) {
	m := wire.ErrResp{Msg: err.Error(), Code: errCode(err)}
	b := wire.NewFrame()
	b.B = m.Marshal(b.B)
	c.send(b, reqID, wire.TErr)
}

// errCode classifies an error for ErrResp.Code so clients dispatch on
// the code, never on message text.
func errCode(err error) uint64 {
	if errors.Is(err, core.ErrTxnConflict) {
		return wire.ErrCodeTxnConflict
	}
	return wire.ErrCodeGeneric
}

// handle runs one request on its own goroutine, so a pipelined
// connection completes out of order: decode, execute, answer. A handler
// that returns nil has sent its response; an error is answered here.
func (rq *request) handle() {
	c, id, payload := rq.c, rq.frame.ReqID, rq.frame.Payload
	var err error
	switch rq.frame.Type {
	case wire.TPing:
		c.ack(id)
	case wire.TGet:
		if err = rq.get.Unmarshal(payload); err == nil {
			err = c.handleGet(id, rq)
		}
	case wire.TQuery:
		if err = rq.query.Unmarshal(payload); err == nil {
			err = c.handleQuery(id, rq)
		}
	case wire.TApply:
		if err = rq.apply.Unmarshal(payload); err == nil {
			err = c.handleApply(id, rq)
		}
	case wire.TCreateTable:
		if err = c.handleCreateTable(payload); err == nil {
			c.ack(id)
		}
	case wire.TCreateIndex:
		if err = c.handleCreateIndex(payload); err == nil {
			c.ack(id)
		}
	case wire.TCheckpoint:
		if err = c.s.eng.Checkpoint(); err == nil {
			c.ack(id)
		}
	case wire.TTxnBegin:
		var m wire.TxnBeginResp
		m.TxnID, m.StartTS = c.beginTxn()
		b := wire.NewFrame()
		b.B = m.Marshal(b.B)
		c.send(b, id, wire.TTxnBeginResp)
	case wire.TTxnCommit, wire.TTxnAbort:
		if err = c.finishTxn(payload, rq.frame.Type == wire.TTxnCommit); err == nil {
			c.ack(id)
		}
	case wire.TStats:
		var doc []byte
		if doc, err = json.Marshal(c.s.Stats()); err == nil {
			m := wire.StatsResp{JSON: doc}
			b := wire.NewFrame()
			b.B = m.Marshal(b.B)
			c.send(b, id, wire.TStatsResp)
		}
	default:
		err = fmt.Errorf("server: unknown frame type %d", rq.frame.Type)
	}
	if err != nil {
		c.sendErr(id, err)
	}
	rq.release()
	<-c.sem
	c.hwg.Done()
}

func (c *conn) handleApply(id uint64, rq *request) error {
	m := &rq.apply
	if m.TxnID != 0 {
		if err := c.handleTxnApply(rq); err != nil {
			return err
		}
	} else if err := c.s.applyOps(m.Table, m.Ops, &rq.result); err != nil {
		return err
	}
	b := wire.NewFrame()
	b.B = rq.result.Marshal(b.B)
	c.send(b, id, wire.TApplyResp)
	return nil
}

// handleTxnApply stages ops into an open transaction. Staging bypasses
// the write coalescer deliberately: a transaction's writes must not be
// folded into other connections' batches — they become durable only at
// the transaction's own commit record.
func (c *conn) handleTxnApply(rq *request) error {
	m := &rq.apply
	ct, err := c.useTxn(m.TxnID)
	if err != nil {
		return err
	}
	defer ct.users.Done()
	tb, err := c.s.eng.Table(m.Table)
	if err != nil {
		return err
	}
	if len(m.Ops) == 0 {
		return errors.New("server: empty batch")
	}
	stageOps(&rq.batch, m.Ops)
	res, aerr := ct.txn.Apply(tb, &rq.batch)
	// Staged writes have no RIDs yet (rows land in the heap at commit);
	// the response reports per-op acceptance only.
	sliceResult(&rq.result, &res, aerr, 0, len(m.Ops))
	return nil
}

// handleGet answers a Get as a point query (core.Table.QueryInto with
// the whole key as its prefix) on the request's kept cursor: the row is
// a view until Next or Close, as every binary-protocol read's is, so it
// is encoded into the frame before the cursor closes and never copied.
func (c *conn) handleGet(id uint64, rq *request) error {
	m, cur := &rq.get, &rq.cur
	tb, err := c.s.pointTable(m)
	if err != nil {
		return err
	}
	opts := [3]core.QueryOption{core.WithIndex(m.Index), core.WithPrefix(m.Key...), core.WithLimit(1)}
	if err := tb.QueryInto(cur, opts[:]...); err != nil {
		return err
	}
	defer cur.Close()
	resp := wire.GetResp{Found: cur.Next()}
	if resp.Found {
		resp.RID, resp.Row = cur.RID().Pack(), cur.Row()
	}
	if err := cur.Err(); err != nil {
		return err
	}
	b := wire.NewFrame()
	b.B = resp.Marshal(b.B)
	c.send(b, id, wire.TGetResp)
	return nil
}

// pointTable resolves a Get's table and checks that its key names one
// row: the index is unique and the key binds every one of its fields.
func (s *Server) pointTable(m *wire.GetReq) (*core.Table, error) {
	tb, err := s.eng.Table(m.Table)
	if err != nil {
		return nil, err
	}
	if m.Index == "" {
		return nil, errors.New("server: index name required for get")
	}
	ix, err := tb.Index(m.Index)
	if err != nil {
		return nil, err
	}
	if !ix.Unique() {
		return nil, fmt.Errorf("server: get requires a unique index; query %q by prefix", m.Index)
	}
	if n := len(ix.KeyFieldNames()); len(m.Key) != n {
		return nil, fmt.Errorf("server: index %q wants %d key values, got %d", m.Index, n, len(m.Key))
	}
	return tb, nil
}

// maxPageBytes closes a query page on its encoded size, whatever row
// count the client asked for: a page is one frame, and a frame past
// wire.MaxFrame cannot be sent. The bound is the frame pool's, so a page
// overshoots what the pool keeps by one row at most; pages of the
// default 256 rows rarely reach it.
const maxPageBytes = wire.MaxPooledBuffer

// handleQuery streams the request's cursor as pages, each encoded row
// by row into its own response buffer — no row is cloned and no page is
// materialized, and a row is a view (core.Table.QueryInto) encoded
// before the next is read. A page goes to the writer the moment it is
// full — by rows or by bytes — so the handler fills the next one while
// the previous one is on the wire.
func (c *conn) handleQuery(id uint64, rq *request) error {
	m, cur := &rq.query, &rq.cur
	ct, err := c.openCursor(m, cur)
	if err != nil {
		return err
	}
	if ct != nil {
		defer ct.users.Done() // runs after Close: the snapshot stays pinned until then
	}
	defer cur.Close()
	pageSize := int(m.PageSize)
	if pageSize <= 0 {
		pageSize = defaultPageSize
	}
	pageSize = min(pageSize, maxPageBytes) // a row is a byte at least
	var page wire.PageBuilder
	b := wire.NewFrame()
	page.Begin(b.B, pageSize)
	rq.rids = rq.rids[:0]
	for cur.Next() {
		page.AppendRow(cur.Row())
		if m.WithRIDs {
			rq.rids = append(rq.rids, cur.RID().Pack())
		}
		if page.Rows() >= pageSize || page.Size() >= maxPageBytes {
			b.B = page.Finish(rq.rids, false)
			c.send(b, id, wire.TQueryPage)
			b = wire.NewFrame()
			page.Begin(b.B, pageSize)
			rq.rids = rq.rids[:0]
		}
	}
	if err := cur.Err(); err != nil {
		b.Release()
		return err
	}
	b.B = page.Finish(rq.rids, true)
	c.send(b, id, wire.TQueryPage)
	return nil
}

func (c *conn) handleCreateTable(payload []byte) error {
	var m wire.CreateTableReq
	if err := m.Unmarshal(payload); err != nil {
		return err
	}
	schema, err := tuple.NewSchema(m.Fields...)
	if err != nil {
		return err
	}
	_, err = c.s.eng.CreateTable(m.Table, schema)
	return err
}

func (c *conn) handleCreateIndex(payload []byte) error {
	var m wire.CreateIndexReq
	if err := m.Unmarshal(payload); err != nil {
		return err
	}
	tb, err := c.s.eng.Table(m.Table)
	if err != nil {
		return err
	}
	var opts []core.IndexOption
	if !m.Unique {
		opts = append(opts, core.NonUnique())
	}
	_, err = tb.CreateIndex(m.Index, m.Fields, opts...)
	return err
}

// openCursor opens the query into cur, resolved against the connection:
// a TxnID routes the scan through that transaction's snapshot — it
// reads the Begin snapshot and excludes the transaction's own staged
// writes (core.Txn has no read-your-own-writes) — everything else falls
// through to the shared latest-read path, including rows that arrived
// via other connections' coalesced batches, which become visible to
// snapshots begun after their group commit. A transactional cursor uses
// the connTxn it returns, so commit/abort waits out its stream; the
// caller must call its users.Done after the cursor is closed.
func (c *conn) openCursor(m *wire.QueryReq, cur *core.Cursor) (*connTxn, error) {
	if m.TxnID == 0 {
		return nil, c.s.openCursor(m, nil, cur)
	}
	ct, err := c.useTxn(m.TxnID)
	if err != nil {
		return nil, err
	}
	if err := c.s.openCursor(m, &ct.txn, cur); err != nil {
		ct.users.Done()
		return nil, err
	}
	return ct, nil
}

// openCursor opens the query into cur, through txn's snapshot when one
// is given; cur's rows are views (QueryInto). The options are built and
// consumed in this one frame on purpose: core's option constructors
// inline and QueryInto only calls what it is handed, so the closures
// stay on this stack — a query costs no allocation per option. Absent
// bounds are tested by length: a reused QueryReq decodes them as empty,
// not nil.
func (s *Server) openCursor(m *wire.QueryReq, txn *core.Txn, cur *core.Cursor) error {
	tb, err := s.eng.Table(m.Table)
	if err != nil {
		return err
	}
	var opts [8]core.QueryOption // one slot per option below; filled by index, as append would move them to the heap
	n := 0
	add := func(o core.QueryOption) { opts[n] = o; n++ }
	if m.Index != "" {
		add(core.WithIndex(m.Index))
	}
	if len(m.Lo) > 0 || len(m.Hi) > 0 {
		add(core.WithKeyRange(m.Lo, m.Hi))
	}
	if len(m.Prefix) > 0 {
		add(core.WithPrefix(m.Prefix...))
	}
	if len(m.Projection) > 0 {
		add(core.WithProjection(m.Projection...))
	}
	if m.Limit > 0 {
		add(core.WithLimit(int(m.Limit)))
	}
	if m.Reverse {
		add(core.WithReverse())
	}
	if m.Parallel > 1 {
		// Clamp: the segment planner bounds its own fan-out, but there is
		// no reason to let one request spawn more workers than cores.
		p := int(m.Parallel)
		if max := runtime.GOMAXPROCS(0) * 2; p > max {
			p = max
		}
		add(core.WithParallel(p))
		if m.Unordered {
			add(core.WithMergeMode(core.MergeUnordered))
		}
	}
	if txn != nil {
		return txn.QueryInto(cur, tb, opts[:n]...)
	}
	return tb.QueryInto(cur, opts[:n]...)
}
