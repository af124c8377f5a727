package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/tuple"
)

// Batch op kinds on the wire (independent of core's internal tags).
const (
	OpInsert uint8 = 0
	OpUpdate uint8 = 1
	OpDelete uint8 = 2
)

// Op is one mutation inside an ApplyReq. RID is the packed physical
// address for updates and deletes; Row is absent for deletes.
type Op struct {
	Kind uint8
	RID  uint64
	Row  tuple.Row
}

// ApplyReq asks the server to apply a batch of ops to one table. The
// server may coalesce the ops with other connections' into a shared
// core.Batch; results are still attributed per op.
type ApplyReq struct {
	Table string
	Ops   []Op
	// TxnID != 0 stages the ops into the connection's open transaction
	// instead of applying them directly. Encoded as an optional trailing
	// field: old requests simply end after the ops, so both directions
	// stay decodable.
	TxnID uint64
}

// Marshal appends the request payload to dst.
func (m *ApplyReq) Marshal(dst []byte) []byte {
	dst = appendString(dst, m.Table)
	dst = appendUvarint(dst, uint64(len(m.Ops)))
	for _, op := range m.Ops {
		dst = append(dst, op.Kind)
		switch op.Kind {
		case OpInsert:
			dst = AppendRow(dst, op.Row)
		case OpUpdate:
			dst = appendUvarint(dst, op.RID)
			dst = AppendRow(dst, op.Row)
		case OpDelete:
			dst = appendUvarint(dst, op.RID)
		}
	}
	if m.TxnID != 0 {
		dst = appendUvarint(dst, m.TxnID)
	}
	return dst
}

// Unmarshal decodes the payload. Its string and bytes values are views
// of b, which must not be written while they are read (see reader):
// the server decodes a request from its own frame and answers before
// it reuses it. Like every Unmarshal here it reuses the receiver's
// slices (and, for names, its strings) when they fit, so a receiver
// decoded into again and again stops allocating; a zero receiver gets
// fresh memory that the caller owns.
func (m *ApplyReq) Unmarshal(b []byte) error {
	r := reader{b: b, own: b}
	m.Table = r.name(m.Table)
	n := r.count(2)
	old := m.Ops[:cap(m.Ops)] // earlier ops lend their rows' backing arrays
	if m.Ops = m.Ops[:0]; cap(m.Ops) < n {
		m.Ops = make([]Op, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		var op Op
		var row tuple.Row
		if i < len(old) {
			row = old[i].Row
		}
		op.Kind = r.byte()
		switch op.Kind {
		case OpInsert:
			op.Row = r.row(row)
		case OpUpdate:
			op.RID = r.uvarint()
			op.Row = r.row(row)
		case OpDelete:
			op.RID = r.uvarint()
		default:
			r.fail(fmt.Errorf("wire: bad op kind %d", op.Kind))
		}
		m.Ops = append(m.Ops, op)
	}
	m.TxnID = 0
	if r.err == nil && r.off < len(r.b) {
		m.TxnID = r.uvarint()
		if m.TxnID == 0 && r.err == nil {
			// The field is only encoded when nonzero; a trailing zero is
			// garbage, not an old-format request.
			r.fail(errors.New("wire: zero txn id"))
		}
	}
	return r.done()
}

// ApplyResp reports per-op outcomes. RIDs[i] is the op's resulting
// packed RID (0 when unknown). Applied counts successes, so a client
// can cheaply detect partial failure. OpErrs[i] is op i's error, ""
// for a success; the server sends it empty when every op applied, and
// an op past its end succeeded — read outcomes through Err.
type ApplyResp struct {
	Applied int
	RIDs    []uint64
	OpErrs  []string
}

// Marshal appends the response payload to dst.
func (m *ApplyResp) Marshal(dst []byte) []byte {
	dst = appendUvarint(dst, uint64(m.Applied))
	dst = appendUvarint(dst, uint64(len(m.RIDs)))
	for _, rid := range m.RIDs {
		dst = appendUvarint(dst, rid)
	}
	dst = appendUvarint(dst, uint64(len(m.OpErrs)))
	for _, e := range m.OpErrs {
		dst = appendString(dst, e)
	}
	return dst
}

// Unmarshal decodes the payload.
func (m *ApplyResp) Unmarshal(b []byte) error {
	r := reader{b: b}
	m.Applied = int(r.uvarint())
	n := r.count(1)
	if m.RIDs = m.RIDs[:0]; cap(m.RIDs) < n {
		m.RIDs = make([]uint64, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.RIDs = append(m.RIDs, r.uvarint())
	}
	n = r.count(1)
	if m.OpErrs = m.OpErrs[:0]; cap(m.OpErrs) < n {
		m.OpErrs = make([]string, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.OpErrs = append(m.OpErrs, r.string())
	}
	return r.done()
}

// Err returns the error for op i, or nil.
func (m *ApplyResp) Err(i int) error {
	if i >= len(m.OpErrs) || m.OpErrs[i] == "" {
		return nil
	}
	return fmt.Errorf("%s", m.OpErrs[i])
}

// GetReq is a point lookup through an index by exact key.
type GetReq struct {
	Table string
	Index string
	Key   tuple.Row
}

// Marshal appends the request payload to dst.
func (m *GetReq) Marshal(dst []byte) []byte {
	dst = appendString(dst, m.Table)
	dst = appendString(dst, m.Index)
	return AppendRow(dst, m.Key)
}

// Unmarshal decodes the payload; its key's strings are views of b, as
// an ApplyReq's are.
func (m *GetReq) Unmarshal(b []byte) error {
	r := reader{b: b, own: b}
	m.Table = r.name(m.Table)
	m.Index = r.name(m.Index)
	m.Key = r.row(m.Key)
	return r.done()
}

// GetResp answers a GetReq.
type GetResp struct {
	Found bool
	RID   uint64
	Row   tuple.Row
}

// Marshal appends the response payload to dst.
func (m *GetResp) Marshal(dst []byte) []byte {
	var f byte
	if m.Found {
		f = 1
	}
	dst = append(dst, f)
	dst = appendUvarint(dst, m.RID)
	return AppendRow(dst, m.Row)
}

// Unmarshal decodes the payload.
func (m *GetResp) Unmarshal(b []byte) error {
	r := reader{b: b}
	m.Found = r.byte() != 0
	m.RID = r.uvarint()
	m.Row = r.row(m.Row)
	return r.done()
}

// QueryReq opens a streaming cursor. Lo/Hi/Prefix are key-field rows
// (nil = absent); Projection names the returned fields (nil = all);
// Limit 0 = unbounded; PageSize 0 = server default. The server streams
// TQueryPage frames echoing the request ID until one has Last set.
type QueryReq struct {
	Table      string
	Index      string
	Lo, Hi     tuple.Row
	Prefix     tuple.Row
	Projection []string
	Limit      uint64
	PageSize   uint32
	Reverse    bool
	WithRIDs   bool
	// Parallel > 1 asks the server to run the scan as segmented workers
	// (requires Index and forward order); 0/1 = serial. Encoded as a
	// flag-gated trailing field, so requests from older clients — which
	// stop at the flags byte — still decode.
	Parallel uint32
	// Unordered selects the unordered merge for a parallel scan: pages
	// interleave segment blocks instead of globally ordering by key.
	Unordered bool
	// TxnID != 0 reads through the connection's open transaction: the
	// cursor observes that transaction's snapshot timestamp. Flag-gated
	// trailing field (bit 16), like Parallel.
	TxnID uint64
}

// Marshal appends the request payload to dst.
func (m *QueryReq) Marshal(dst []byte) []byte {
	dst = appendString(dst, m.Table)
	dst = appendString(dst, m.Index)
	dst = AppendRow(dst, m.Lo)
	dst = AppendRow(dst, m.Hi)
	dst = AppendRow(dst, m.Prefix)
	dst = appendUvarint(dst, uint64(len(m.Projection)))
	for _, p := range m.Projection {
		dst = appendString(dst, p)
	}
	dst = appendUvarint(dst, m.Limit)
	dst = appendUvarint(dst, uint64(m.PageSize))
	var f byte
	if m.Reverse {
		f |= 1
	}
	if m.WithRIDs {
		f |= 2
	}
	if m.Unordered {
		f |= 4
	}
	if m.Parallel > 0 {
		f |= 8
	}
	if m.TxnID != 0 {
		f |= 16
	}
	dst = append(dst, f)
	if m.Parallel > 0 {
		dst = appendUvarint(dst, uint64(m.Parallel))
	}
	if m.TxnID != 0 {
		dst = appendUvarint(dst, m.TxnID)
	}
	return dst
}

// Unmarshal decodes the payload; its bounds' strings are views of b, as
// an ApplyReq's are.
func (m *QueryReq) Unmarshal(b []byte) error {
	r := reader{b: b, own: b}
	m.Table = r.name(m.Table)
	m.Index = r.name(m.Index)
	m.Lo = r.row(m.Lo)
	m.Hi = r.row(m.Hi)
	m.Prefix = r.row(m.Prefix)
	n := r.count(1)
	old := m.Projection
	m.Projection = m.Projection[:0]
	for i := 0; i < n && r.err == nil; i++ {
		var prev string
		if i < len(old) {
			prev = old[i] // read before the append below overwrites slot i
		}
		m.Projection = append(m.Projection, r.name(prev))
	}
	m.Limit = r.uvarint()
	m.PageSize = uint32(r.uvarint())
	f := r.byte()
	m.Reverse = f&1 != 0
	m.WithRIDs = f&2 != 0
	m.Unordered = f&4 != 0
	m.Parallel = 0
	if f&8 != 0 {
		m.Parallel = uint32(r.uvarint())
	}
	m.TxnID = 0
	if f&16 != 0 {
		m.TxnID = r.uvarint()
	}
	return r.done()
}

// QueryPage is one page of query results. RIDs is parallel to Rows
// when the query asked WithRIDs, else empty. Last marks the final page
// (which may be empty).
type QueryPage struct {
	Rows []tuple.Row
	RIDs []uint64
	Last bool
	// slab backs a decoded page's rows: Unmarshal carves every row from
	// it, and the next Unmarshal into the same page overwrites it.
	slab []tuple.Value
}

// Marshal appends the page payload to dst.
func (m *QueryPage) Marshal(dst []byte) []byte {
	var p PageBuilder
	p.Begin(dst, len(m.Rows))
	for _, row := range m.Rows {
		p.AppendRow(row)
	}
	return p.Finish(m.RIDs, m.Last)
}

// PageBuilder encodes a QueryPage row by row straight into its frame
// buffer, so a streaming handler never materializes the page's rows.
// On the wire the row count precedes the rows but is known only when
// the page closes: Begin reserves the count's width for a full page and
// Finish closes the gap when the page ends short of that (the rows move
// down a byte or two), so the bytes are exactly QueryPage.Marshal's.
type PageBuilder struct {
	buf   []byte
	start int // offset of the payload: the Last flag, then the count
	width int // bytes reserved for the row count
	rows  int
}

// Begin opens a page at the end of dst that expects up to maxRows rows.
func (p *PageBuilder) Begin(dst []byte, maxRows int) {
	var cnt [binary.MaxVarintLen64]byte
	p.start, p.rows = len(dst), 0
	p.width = binary.PutUvarint(cnt[:], uint64(maxRows))
	p.buf = append(dst, make([]byte, 1+p.width)...)
}

// AppendRow encodes the next row of the page.
func (p *PageBuilder) AppendRow(r tuple.Row) {
	p.buf = AppendRow(p.buf, r)
	p.rows++
}

// Rows returns how many rows the open page holds.
func (p *PageBuilder) Rows() int { return p.rows }

// Size returns how many payload bytes the open page holds so far.
func (p *PageBuilder) Size() int { return len(p.buf) - p.start }

// Finish closes the page with its RIDs (parallel to the rows, or empty)
// and its Last flag, and returns the extended buffer.
func (p *PageBuilder) Finish(rids []uint64, last bool) []byte {
	b := p.buf
	p.buf = nil
	if last {
		b[p.start] = 1
	}
	var cnt [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(cnt[:], uint64(p.rows))
	if at, end := p.start+1, len(b); w != p.width {
		if w > p.width {
			b = append(b, cnt[:w-p.width]...)
		}
		copy(b[at+w:], b[at+p.width:end])
		b = b[:end+w-p.width]
	}
	copy(b[p.start+1:], cnt[:w])
	b = appendUvarint(b, uint64(len(rids)))
	for _, rid := range rids {
		b = appendUvarint(b, rid)
	}
	return b
}

// Seed hands the page backing arrays for its Rows and its slab to
// decode into: a reader that keeps them inline decodes a page that fits
// them without allocating.
func (m *QueryPage) Seed(rows []tuple.Row, vals []tuple.Value, rids []uint64) {
	m.Rows, m.slab, m.RIDs = rows[:0], vals[:0], rids[:0]
}

// Unmarshal decodes the payload. The rows are capped sub-slices of one
// slab the page owns, sized from the first row's width and reused from
// one page to the next, so a page costs O(1) allocations however many
// rows it holds — one more, the payload's private copy, when it carries
// strings or bytes (see reader): the next page's decode overwrites the
// rows, never the values' bytes. A page whose rows outgrow that estimate
// still decodes: append moves the slab on and the earlier rows keep the
// old one.
func (m *QueryPage) Unmarshal(b []byte) error {
	r := reader{b: b}
	m.Last = r.byte() != 0
	n := r.count(1) // an empty row is one byte: its width
	// A row of values is two bytes at least: a corrupt count cannot size
	// Rows past that, and a page of empty rows grows it by append.
	m.Rows = m.Rows[:0]
	if want := min(n, (len(b)-r.off)/2+1); cap(m.Rows) < want {
		m.Rows = make([]tuple.Row, 0, want)
	}
	slab := m.slab[:0]
	for i := 0; i < n && r.err == nil; i++ {
		w := r.count(2)
		if i == 0 {
			// A value is two bytes at least: a corrupt count cannot size the
			// slab past what the payload could hold.
			if want := min(n*w, (len(b)-r.off)/2+1); cap(slab) < want {
				slab = make([]tuple.Value, 0, want)
			}
		}
		lo := len(slab)
		for j := 0; j < w && r.err == nil; j++ {
			slab = append(slab, r.value())
		}
		m.Rows = append(m.Rows, slab[lo:len(slab):len(slab)])
	}
	m.slab = slab
	n = r.count(1)
	if m.RIDs = m.RIDs[:0]; cap(m.RIDs) < n {
		m.RIDs = make([]uint64, 0, n)
	}
	for i := 0; i < n && r.err == nil; i++ {
		m.RIDs = append(m.RIDs, r.uvarint())
	}
	return r.done()
}

// CreateTableReq declares a table. Fields carry declared kinds per the
// paper's §4.1 hint semantics.
type CreateTableReq struct {
	Table  string
	Fields []tuple.Field
}

// Marshal appends the request payload to dst.
func (m *CreateTableReq) Marshal(dst []byte) []byte {
	dst = appendString(dst, m.Table)
	dst = appendUvarint(dst, uint64(len(m.Fields)))
	for _, f := range m.Fields {
		dst = appendString(dst, f.Name)
		dst = append(dst, byte(f.Kind))
		dst = appendUvarint(dst, uint64(f.Size))
	}
	return dst
}

// Unmarshal decodes the payload.
func (m *CreateTableReq) Unmarshal(b []byte) error {
	r := reader{b: b}
	m.Table = r.string()
	n := r.count(3)
	m.Fields = make([]tuple.Field, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var f tuple.Field
		f.Name = r.string()
		f.Kind = tuple.Kind(r.byte())
		f.Size = int(r.uvarint())
		m.Fields = append(m.Fields, f)
	}
	return r.done()
}

// CreateIndexReq declares an index over a table's fields.
type CreateIndexReq struct {
	Table  string
	Index  string
	Fields []string
	Unique bool
}

// Marshal appends the request payload to dst.
func (m *CreateIndexReq) Marshal(dst []byte) []byte {
	dst = appendString(dst, m.Table)
	dst = appendString(dst, m.Index)
	dst = appendUvarint(dst, uint64(len(m.Fields)))
	for _, f := range m.Fields {
		dst = appendString(dst, f)
	}
	var u byte
	if m.Unique {
		u = 1
	}
	return append(dst, u)
}

// Unmarshal decodes the payload.
func (m *CreateIndexReq) Unmarshal(b []byte) error {
	r := reader{b: b}
	m.Table = r.string()
	m.Index = r.string()
	n := r.count(1)
	m.Fields = make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		m.Fields = append(m.Fields, r.string())
	}
	m.Unique = r.byte() != 0
	return r.done()
}

// StatsResp carries the server's counters as a JSON document — the
// set of counters evolves faster than the wire protocol should.
type StatsResp struct {
	JSON []byte
}

// Marshal appends the response payload to dst.
func (m *StatsResp) Marshal(dst []byte) []byte { return appendBytes(dst, m.JSON) }

// Unmarshal decodes the payload.
func (m *StatsResp) Unmarshal(b []byte) error {
	r := reader{b: b}
	m.JSON = r.bytes()
	return r.done()
}

// TxnBeginResp answers a TTxnBegin: the connection-scoped transaction
// handle and the snapshot timestamp its reads observe.
type TxnBeginResp struct {
	TxnID   uint64
	StartTS uint64
}

// Marshal appends the response payload to dst.
func (m *TxnBeginResp) Marshal(dst []byte) []byte {
	dst = appendUvarint(dst, m.TxnID)
	return appendUvarint(dst, m.StartTS)
}

// Unmarshal decodes the payload.
func (m *TxnBeginResp) Unmarshal(b []byte) error {
	r := reader{b: b}
	m.TxnID = r.uvarint()
	m.StartTS = r.uvarint()
	return r.done()
}

// TxnFinishReq commits or aborts a transaction (TTxnCommit/TTxnAbort).
type TxnFinishReq struct {
	TxnID uint64
}

// Marshal appends the request payload to dst.
func (m *TxnFinishReq) Marshal(dst []byte) []byte { return appendUvarint(dst, m.TxnID) }

// Unmarshal decodes the payload.
func (m *TxnFinishReq) Unmarshal(b []byte) error {
	r := reader{b: b}
	m.TxnID = r.uvarint()
	return r.done()
}

// Error codes carried by ErrResp.Code: a machine-readable
// classification for the errors clients dispatch on, so retry logic
// never has to match message text.
const (
	// ErrCodeGeneric is an unclassified server error.
	ErrCodeGeneric uint64 = 0
	// ErrCodeTxnConflict reports first-committer-wins validation
	// failure: the transaction rolled back cleanly and may be retried
	// from Begin.
	ErrCodeTxnConflict uint64 = 1
)

// ErrResp reports a failed request.
type ErrResp struct {
	Msg  string
	Code uint64 // ErrCode* classification
}

// Marshal appends the response payload to dst.
func (m *ErrResp) Marshal(dst []byte) []byte {
	dst = appendString(dst, m.Msg)
	return appendUvarint(dst, m.Code)
}

// Unmarshal decodes the payload.
func (m *ErrResp) Unmarshal(b []byte) error {
	r := reader{b: b}
	m.Msg = r.string()
	m.Code = r.uvarint()
	return r.done()
}

// done finalizes a decode: any latched error wins, and trailing bytes
// beyond the message are rejected (they indicate a framing bug or a
// tampered payload).
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(r.b)-r.off)
	}
	return nil
}
