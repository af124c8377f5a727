package client

import (
	"errors"
	"time"

	"repro/internal/wire"
)

// QueryOption configures Client.Query, mirroring the embedded
// core.Query options. Options copy the values and names they are given
// into the stream, so the caller's slices are not retained.
type QueryOption func(*wire.QueryReq)

// WithIndex routes the query through the named index (key order, key
// bounds).
func WithIndex(name string) QueryOption {
	return func(q *wire.QueryReq) { q.Index = name }
}

// WithKeyRange bounds an index query to lo ≤ key < hi (nil =
// unbounded; bounds may be key-field prefixes).
func WithKeyRange(lo, hi Row) QueryOption {
	return func(q *wire.QueryReq) { q.Lo, q.Hi = append(q.Lo[:0], lo...), append(q.Hi[:0], hi...) }
}

// WithPrefix bounds an index query to keys whose leading fields equal
// the given values.
func WithPrefix(vals ...Value) QueryOption {
	return func(q *wire.QueryReq) { q.Prefix = append(q.Prefix[:0], vals...) }
}

// WithProjection restricts rows to the named fields.
func WithProjection(fields ...string) QueryOption {
	return func(q *wire.QueryReq) { q.Projection = append(q.Projection[:0], fields...) }
}

// WithLimit stops the stream after n rows.
func WithLimit(n uint64) QueryOption {
	return func(q *wire.QueryReq) { q.Limit = n }
}

// WithReverse iterates in descending key order.
func WithReverse() QueryOption {
	return func(q *wire.QueryReq) { q.Reverse = true }
}

// WithPageSize sets rows per streamed page (0 = server default). The
// server also closes a page on its encoded size, so a page may hold
// fewer rows than asked for.
func WithPageSize(n uint32) QueryOption {
	return func(q *wire.QueryReq) { q.PageSize = n }
}

// WithRIDs asks the server to attach each row's packed RID (see
// Rows.RID).
func WithRIDs() QueryOption {
	return func(q *wire.QueryReq) { q.WithRIDs = true }
}

// WithParallel asks the server to run the scan as segmented parallel
// workers (requires WithIndex and forward order; n ≤ 1 = serial; the
// server clamps n to its core count). Rows arrive in global key order
// unless WithUnordered is also set.
func WithParallel(n uint32) QueryOption {
	return func(q *wire.QueryReq) { q.Parallel = n }
}

// WithUnordered lets a parallel scan interleave segment blocks instead
// of merging them into global key order — the maximum-throughput mode.
// No effect without WithParallel.
func WithUnordered() QueryOption {
	return func(q *wire.QueryReq) { q.Unordered = true }
}

// Query opens a streaming cursor over a table. Pages flow lazily as
// Next is called — a slow consumer backpressures the server instead of
// buffering the result set. Close early to abandon a stream.
//
// Opening is idempotent, but an in-flight stream is not transparently
// retried: a transport error mid-stream surfaces via Err.
func (c *Client) Query(table string, opts ...QueryOption) (*Rows, error) {
	cc, err := c.conn()
	if err != nil {
		return nil, err
	}
	return cc.query(table, 0, opts, c.cfg.timeout)
}

// query opens a stream on cc: the request is built in the Rows it
// returns, which is the one allocation a query's setup makes.
func (cc *clientConn) query(table string, txnID uint64, opts []QueryOption, timeout time.Duration) (*Rows, error) {
	r := &Rows{cc: cc, timeout: timeout}
	m := &r.req
	m.Table, m.TxnID = table, txnID
	m.Lo, m.Hi, m.Prefix, m.Projection = r.bounds[0][:0], r.bounds[1][:0], r.bounds[2][:0], r.names[:0]
	for _, o := range opts {
		o(m)
	}
	r.page.Seed(r.rowArr[:], r.valArr[:], r.ridArr[:])
	w, err := cc.register()
	if err != nil {
		return nil, err
	}
	req := wire.NewFrame()
	req.B = m.Marshal(req.B)
	err = cc.send(w, wire.TQuery, req)
	req.Release()
	if err != nil {
		cc.release(w)
		return nil, err
	}
	r.w = w
	return r, nil
}

// maxBufferedPages bounds how many response pages the reader goroutine
// will hold for a slow Rows consumer before stalling the connection.
const maxBufferedPages = 32

// Rows streams query results, mirroring core.Cursor: Next / Row / RID
// / Err / Close. Rows is not safe for concurrent use.
type Rows struct {
	cc      *clientConn
	w       *waiter // the stream's claim on its pages; released when the last one arrived
	timeout time.Duration

	page wire.QueryPage // decoded in place, page after page
	idx  int
	row  Row
	rid  uint64
	err  error
	done bool

	// The request and inline backing for what the options copy into it
	// and for a small first page, so a short query allocates only its
	// Rows.
	req    wire.QueryReq
	bounds [3][2]Value // Lo, Hi, Prefix
	names  [4]string   // Projection
	rowArr [2]Row
	valArr [16]Value
	ridArr [2]uint64
}

// Next advances to the next row, fetching pages as needed. It returns
// false at the end of the stream or on error (check Err).
func (r *Rows) Next() bool {
	for {
		if r.err != nil {
			return false
		}
		if r.idx < len(r.page.Rows) {
			r.row = r.page.Rows[r.idx]
			if r.idx < len(r.page.RIDs) {
				r.rid = r.page.RIDs[r.idx]
			} else {
				r.rid = 0
			}
			r.idx++
			return true
		}
		if r.done {
			return false
		}
		if !r.fetchPage() {
			return false
		}
	}
}

func (r *Rows) fetchPage() bool {
	resp, err := r.cc.recv(r.w, r.timeout)
	if err == nil {
		// The page is decoded over the previous one; its values' strings
		// and bytes are views of the page's own copy of the payload, not of
		// the response buffer, and outlive the next page.
		err = r.page.Unmarshal(resp.Payload)
		resp.release()
		if err != nil {
			r.abandon() // what follows an undecodable page cannot be trusted
		}
	} else if errors.Is(err, ErrTimeout) {
		r.abandon()
	}
	// The last page and a server error are each the server's last word
	// on the request: the waiter is free for the next one.
	if _, isServer := err.(*ServerError); err == nil && r.page.Last || isServer {
		r.cc.release(r.w)
	}
	if err != nil {
		r.err, r.done = err, true
		return false
	}
	r.idx = 0
	r.done = r.page.Last
	return true
}

// Row returns the current row. The slice is owned by the stream and
// overwritten by the next page fetch, but the values taken out of it
// stay valid: their strings and byte slices are views of their page's
// private copy of the payload, which is never written — and which one
// kept value keeps reachable (at most 64 KiB and a row per page).
func (r *Rows) Row() Row { return r.row }

// RID returns the current row's packed RID when the query used
// WithRIDs, else 0.
func (r *Rows) RID() uint64 { return r.rid }

// Err returns the first error the stream hit, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the stream. Abandoning an unfinished stream severs
// its connection — the wire protocol has no cancel message, and a
// leaked stream would otherwise stall the shared reader once its page
// buffer fills. Finished streams are free to close.
func (r *Rows) Close() error {
	if !r.done {
		r.abandon()
		r.done = true
	}
	return nil
}

// errAbandoned is what the other requests in flight on a connection get
// when a stream abandons it: they did not time out, their connection was
// closed under them.
var errAbandoned = errors.New("client: connection closed: a query stream on it was abandoned")

// abandon gives up on a stream in mid-flight by closing its connection:
// the server may still be streaming pages, and the reader must not
// stall behind a channel nobody drains. The waiter dies with the
// connection, and so does every other request on it.
func (r *Rows) abandon() { r.cc.close(errAbandoned) }
