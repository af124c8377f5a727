// Package client is the Go client for nblb-server's binary protocol.
//
// A Client owns a small pool of TCP connections, each fully pipelined:
// any number of goroutines may issue requests concurrently, responses
// are matched by request ID, and a streaming Query consumes pages
// lazily like an embedded core.Cursor. Idempotent reads (Get, Query
// open, Stats, Ping) are retried on transport errors; writes are
// never retried — a timed-out Apply may or may not have committed,
// and the client surfaces that honestly instead of double-applying.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// Re-exported data types, so embedders and network callers share one
// vocabulary (the nblb facade aliases these too).
type (
	// Field declares one column for CreateTable.
	Field = tuple.Field
	// Value is one field value.
	Value = tuple.Value
	// Row is an ordered list of values.
	Row = tuple.Row
	// ApplyResult reports per-op outcomes of an Apply: Applied counts
	// successes, RIDs[i] is op i's resulting packed RID, and Err(i) its
	// error or nil. OpErrs holds the errors as strings ("" for a
	// success); it is nil when every op applied.
	ApplyResult = wire.ApplyResp
	// Kind tags a field's declared type.
	Kind = tuple.Kind
)

// Field kinds, for declaring CreateTable columns.
const (
	KindInt64     = tuple.KindInt64
	KindInt32     = tuple.KindInt32
	KindInt16     = tuple.KindInt16
	KindInt8      = tuple.KindInt8
	KindBool      = tuple.KindBool
	KindFloat64   = tuple.KindFloat64
	KindChar      = tuple.KindChar
	KindString    = tuple.KindString
	KindBytes     = tuple.KindBytes
	KindTimestamp = tuple.KindTimestamp
)

// Value constructors, re-exported so network callers build rows
// without importing any internal package.
var (
	Int64         = tuple.Int64
	Int32         = tuple.Int32
	Int16         = tuple.Int16
	Int8          = tuple.Int8
	Bool          = tuple.Bool
	Float64       = tuple.Float64
	Char          = tuple.Char
	String        = tuple.String
	Bytes         = tuple.Bytes
	Timestamp     = tuple.Timestamp
	TimestampUnix = tuple.TimestampUnix
	Null          = tuple.Null
)

// ServerError is an error the server attributed to the request (bad
// table, duplicate key, malformed row). It is never retried. Code
// carries the server's wire.ErrCode* classification so callers can
// dispatch without matching message text.
type ServerError struct {
	Msg  string
	Code uint64
}

func (e *ServerError) Error() string { return e.Msg }

// ErrTimeout is returned when a request exceeds the configured
// timeout. For writes the op may still commit server-side.
var ErrTimeout = errors.New("client: request timed out")

// Option configures Dial.
type Option func(*config)

type config struct {
	poolSize    int
	timeout     time.Duration
	readRetries int
}

// WithPoolSize sets the connection pool size (default 2).
func WithPoolSize(n int) Option { return func(c *config) { c.poolSize = n } }

// WithTimeout sets the per-request timeout (default 10s).
func WithTimeout(d time.Duration) Option { return func(c *config) { c.timeout = d } }

// WithReadRetries sets how many times idempotent reads are retried on
// transport errors (default 2). Server-attributed errors never retry.
func WithReadRetries(n int) Option { return func(c *config) { c.readRetries = n } }

// Client is a pooled, pipelined connection to one nblb-server.
type Client struct {
	addr string
	cfg  config

	mu     sync.Mutex
	conns  []*clientConn
	closed bool
	next   atomic.Uint64
}

// Dial connects to an nblb-server. The pool dials lazily; Dial itself
// verifies the address with one connection.
func Dial(addr string, opts ...Option) (*Client, error) {
	cfg := config{poolSize: 2, timeout: 10 * time.Second, readRetries: 2}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.poolSize < 1 {
		cfg.poolSize = 1
	}
	c := &Client{addr: addr, cfg: cfg, conns: make([]*clientConn, cfg.poolSize)}
	cc, err := c.conn()
	if err != nil {
		return nil, err
	}
	_ = cc
	return c, nil
}

// Close severs every pooled connection. In-flight requests fail with
// transport errors.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, cc := range c.conns {
		if cc != nil {
			cc.close(errors.New("client: closed"))
		}
	}
	return nil
}

// conn returns a live pooled connection, redialing a broken slot.
func (c *Client) conn() (*clientConn, error) {
	i := int(c.next.Add(1)) % len(c.conns)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("client: closed")
	}
	cc := c.conns[i]
	if cc != nil && !cc.broken() {
		return cc, nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.cfg.timeout)
	if err != nil {
		return nil, err
	}
	cc = newClientConn(nc)
	c.conns[i] = cc
	return cc, nil
}

// roundTrip sends one request on one pooled connection and waits for
// its single response frame. req is a frame begun with wire.NewFrame
// and the payload marshalled behind it; the round trip seals it with
// the request ID it allocates, and the caller releases it afterwards —
// as it does the response, once decoded.
func (c *Client) roundTrip(typ uint8, req *wire.Buffer) (response, error) {
	cc, err := c.conn()
	if err != nil {
		return response{}, err
	}
	return cc.roundTrip(typ, req, c.cfg.timeout)
}

// readRoundTrip is roundTrip with transport-error retries, for
// idempotent requests only.
func (c *Client) readRoundTrip(typ uint8, req *wire.Buffer) (response, error) {
	var lastErr error
	for attempt := 0; attempt <= c.cfg.readRetries; attempt++ {
		resp, err := c.roundTrip(typ, req)
		if err == nil {
			return resp, nil
		}
		if _, ok := err.(*ServerError); ok {
			return response{}, err
		}
		lastErr = err
	}
	return response{}, lastErr
}

// call is a round trip whose response carries nothing but success.
func (c *Client) call(typ uint8, req *wire.Buffer, retry bool) error {
	var (
		resp response
		err  error
	)
	if retry {
		resp, err = c.readRoundTrip(typ, req)
	} else {
		resp, err = c.roundTrip(typ, req)
	}
	req.Release()
	resp.release()
	return err
}

// Ping round-trips an empty frame (retried like a read).
func (c *Client) Ping() error { return c.call(wire.TPing, wire.NewFrame(), true) }

// CreateTable declares a table.
func (c *Client) CreateTable(table string, fields ...Field) error {
	m := wire.CreateTableReq{Table: table, Fields: fields}
	req := wire.NewFrame()
	req.B = m.Marshal(req.B)
	return c.call(wire.TCreateTable, req, false)
}

// CreateIndex declares an index over a table's fields.
func (c *Client) CreateIndex(table, index string, fields []string, unique bool) error {
	m := wire.CreateIndexReq{Table: table, Index: index, Fields: fields, Unique: unique}
	req := wire.NewFrame()
	req.B = m.Marshal(req.B)
	return c.call(wire.TCreateIndex, req, false)
}

// Checkpoint forces an engine checkpoint.
func (c *Client) Checkpoint() error { return c.call(wire.TCheckpoint, wire.NewFrame(), false) }

// Stats fetches the server's counters as raw JSON (schema:
// server.StatsSnapshot).
func (c *Client) Stats() ([]byte, error) {
	req := wire.NewFrame()
	resp, err := c.readRoundTrip(wire.TStats, req)
	req.Release()
	if err != nil {
		return nil, err
	}
	var m wire.StatsResp
	err = m.Unmarshal(resp.Payload)
	resp.release()
	return m.JSON, err
}

// Get performs a point lookup through a unique index. found=false
// with a nil error means the key does not exist.
func (c *Client) Get(table, index string, key ...Value) (Row, bool, error) {
	m := wire.GetReq{Table: table, Index: index, Key: key}
	req := wire.NewFrame()
	req.B = m.Marshal(req.B)
	resp, err := c.readRoundTrip(wire.TGet, req)
	req.Release()
	if err != nil {
		return nil, false, err
	}
	// Decoded into fresh memory: the row is the caller's.
	var out wire.GetResp
	err = out.Unmarshal(resp.Payload)
	resp.release()
	if err != nil {
		return nil, false, err
	}
	return out.Row, out.Found, nil
}

// Apply sends a batch of mutations. The server may coalesce them with
// other connections' ops into one shared engine batch; results are
// attributed per op either way. Apply is not retried on transport
// errors (a lost ack does not mean a lost write).
func (c *Client) Apply(table string, b *Batch) (ApplyResult, error) {
	cc, err := c.conn()
	if err != nil {
		return ApplyResult{}, err
	}
	return cc.apply(&wire.ApplyReq{Table: table, Ops: b.ops}, c.cfg.timeout)
}

// apply round-trips one ApplyReq (raw or transactional) on cc.
func (cc *clientConn) apply(m *wire.ApplyReq, timeout time.Duration) (ApplyResult, error) {
	req := wire.NewFrame()
	req.B = m.Marshal(req.B)
	resp, err := cc.roundTrip(wire.TApply, req, timeout)
	req.Release()
	if err != nil {
		return ApplyResult{}, err
	}
	var out wire.ApplyResp
	err = out.Unmarshal(resp.Payload)
	resp.release()
	if err != nil {
		return ApplyResult{}, err
	}
	return out, nil
}

// Batch accumulates mutations for Apply. The zero Batch is ready to
// use.
type Batch struct{ ops []wire.Op }

// Insert queues a row insert.
func (b *Batch) Insert(row Row) *Batch {
	b.ops = append(b.ops, wire.Op{Kind: wire.OpInsert, Row: row})
	return b
}

// Update queues an update of the record at packed RID rid.
func (b *Batch) Update(rid uint64, row Row) *Batch {
	b.ops = append(b.ops, wire.Op{Kind: wire.OpUpdate, RID: rid, Row: row})
	return b
}

// Delete queues a delete of the record at packed RID rid.
func (b *Batch) Delete(rid uint64) *Batch {
	b.ops = append(b.ops, wire.Op{Kind: wire.OpDelete, RID: rid})
	return b
}

// Len returns the number of queued ops.
func (b *Batch) Len() int { return len(b.ops) }

// Reset empties the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// --- connection ---

// clientConn is one pipelined connection: writes are serialized by wmu
// and a single reader goroutine demultiplexes responses by request ID
// to the waiter registered for it. Waiter channels are never closed;
// conn death is broadcast by closing dead, which every waiter (and the
// reader's own sends) selects against — so there is no
// send-on-closed-channel window.
type clientConn struct {
	nc   net.Conn
	dead chan struct{} // closed exactly once when the conn breaks

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex // everything below
	pending map[uint64]*waiter
	free    []*waiter // idle waiters; at most one per request ever in flight at once
	nextID  uint64
	err     error
}

// waiter is one request's claim on its response(s): the channel the
// reader delivers to and the timer that bounds the wait, both recycled
// through the connection's free list.
//
// Recycling makes a late response dangerous: the reader looks a waiter
// up under cc.mu but delivers after unlocking, so a response to a
// request that has just timed out can land in the channel after the
// waiter went back to the free list — even after its next request took
// it. Every delivery therefore carries its request ID, and recv drops
// what is not addressed to the waiter's current request.
type waiter struct {
	id uint64
	// Buffered so the reader can run ahead of a slow Rows consumer by
	// maxBufferedPages before it stalls the connection.
	ch    chan response
	timer *time.Timer
}

// response is one delivered frame. Its payload aliases a pooled buffer
// the receiver owns: decode (Unmarshal copies out), then release.
type response struct {
	wire.Frame
	buf *wire.Buffer
}

func (r response) release() {
	if r.buf != nil {
		r.buf.Release()
	}
}

func newClientConn(nc net.Conn) *clientConn {
	cc := &clientConn{
		nc:      nc,
		dead:    make(chan struct{}),
		pending: make(map[uint64]*waiter),
	}
	go cc.readLoop()
	return cc
}

func (cc *clientConn) broken() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err != nil
}

func (cc *clientConn) lastErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err
}

// close fails every pending request and severs the socket.
func (cc *clientConn) close(err error) {
	cc.mu.Lock()
	if cc.err != nil {
		cc.mu.Unlock()
		return
	}
	cc.err = err
	cc.mu.Unlock()
	cc.nc.Close()
	close(cc.dead)
}

func (cc *clientConn) readLoop() {
	br := bufio.NewReaderSize(cc.nc, 64<<10)
	buf := wire.GetBuffer()
	for {
		f, b, err := wire.ReadFrame(br, buf.B)
		buf.B = b
		if err != nil {
			cc.close(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		cc.mu.Lock()
		w := cc.pending[f.ReqID]
		if w != nil && (f.Type != wire.TQueryPage || isLastPage(f.Payload)) {
			delete(cc.pending, f.ReqID)
		}
		cc.mu.Unlock()
		if w == nil {
			continue // nobody waits (timed out, abandoned): read over it
		}
		// The buffer goes with the frame; the receiver returns it to the
		// pool once it has decoded the payload.
		select {
		case w.ch <- response{f, buf}: // buffered; Query streams backpressure here
			buf = wire.GetBuffer()
		case <-cc.dead:
			return
		}
	}
}

// isLastPage peeks a page's Last flag without a full decode.
func isLastPage(payload []byte) bool {
	return len(payload) > 0 && payload[0]&1 != 0
}

// register allocates a request ID and a waiter for its response(s).
func (cc *clientConn) register() (*waiter, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return nil, cc.err
	}
	var w *waiter
	if n := len(cc.free); n > 0 {
		w, cc.free = cc.free[n-1], cc.free[:n-1]
	} else {
		w = &waiter{ch: make(chan response, maxBufferedPages), timer: time.NewTimer(time.Hour)}
		w.timer.Stop()
	}
	cc.nextID++
	w.id = cc.nextID
	cc.pending[w.id] = w
	return w, nil
}

// release ends w's request — answered, timed out or never sent — and
// recycles the waiter. Forgetting the request and freeing the waiter
// are one step under cc.mu; a response the reader had already picked w
// for is handled by recv's ID check.
func (cc *clientConn) release(w *waiter) {
	cc.mu.Lock()
	delete(cc.pending, w.id)
	if cc.err == nil {
		cc.free = append(cc.free, w)
	}
	cc.mu.Unlock()
}

// send seals the request frame begun in req with w's request ID and
// writes it.
func (cc *clientConn) send(w *waiter, typ uint8, req *wire.Buffer) error {
	req.Seal(w.id, typ)
	cc.wmu.Lock()
	_, err := cc.nc.Write(req.B)
	cc.wmu.Unlock()
	if err != nil {
		cc.close(fmt.Errorf("client: write failed: %w", err))
	}
	return err
}

// recv waits up to timeout for the next response to w's request. A
// TErr frame comes back as a *ServerError; ErrTimeout and transport
// errors leave the request registered (the caller releases or abandons
// it).
func (cc *clientConn) recv(w *waiter, timeout time.Duration) (response, error) {
	w.timer.Reset(timeout)
	defer w.timer.Stop()
	for {
		select {
		case r := <-w.ch:
			if r.ReqID != w.id {
				r.release() // late answer to a request this waiter gave up on
				continue
			}
			return checkErr(r)
		case <-cc.dead:
			// The response may have been buffered just before the conn
			// died; prefer it over the transport error.
			for {
				select {
				case r := <-w.ch:
					if r.ReqID == w.id {
						return checkErr(r)
					}
					r.release()
				default:
					return response{}, cc.lastErr()
				}
			}
		case <-w.timer.C:
			return response{}, ErrTimeout
		}
	}
}

// roundTrip issues one single-response request.
func (cc *clientConn) roundTrip(typ uint8, req *wire.Buffer, timeout time.Duration) (response, error) {
	w, err := cc.register()
	if err != nil {
		return response{}, err
	}
	defer cc.release(w)
	if err := cc.send(w, typ, req); err != nil {
		return response{}, err
	}
	return cc.recv(w, timeout)
}

// checkErr converts a TErr frame into a *ServerError.
func checkErr(r response) (response, error) {
	if r.Type != wire.TErr {
		return r, nil
	}
	var m wire.ErrResp
	err := m.Unmarshal(r.Payload)
	r.release()
	if err != nil {
		return response{}, err
	}
	return response{}, &ServerError{Msg: m.Msg, Code: m.Code}
}
