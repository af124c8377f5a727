package client

import (
	"errors"
	"time"

	"repro/internal/wire"
)

// ErrTxnConflict is returned by Txn.Commit when the server aborted the
// transaction under first-committer-wins: another transaction committed
// a newer version of a row this one updated or deleted. Retry the whole
// transaction against a fresh snapshot.
var ErrTxnConflict = errors.New("client: transaction conflict")

// Txn is a server-side snapshot transaction. All of its requests ride
// one pinned connection — transaction state lives on the server's
// per-connection registry, so the pool's round-robin must not scatter
// them. A Txn is not safe for concurrent use.
//
// Reads through Txn.Query see exactly the snapshot taken at Begin —
// not the transaction's own staged writes (no read-your-own-writes);
// writes through Txn.Apply stage server-side and become durable —
// atomically, all or nothing — at Commit. If the connection drops, the
// server aborts the transaction.
type Txn struct {
	cc      *clientConn
	id      uint64
	startTS uint64
	timeout time.Duration
	done    bool
}

// Begin opens a snapshot transaction on the server.
func (c *Client) Begin() (*Txn, error) {
	cc, err := c.conn()
	if err != nil {
		return nil, err
	}
	req := wire.NewFrame()
	resp, err := cc.roundTrip(wire.TTxnBegin, req, c.cfg.timeout)
	req.Release()
	if err != nil {
		return nil, err
	}
	var m wire.TxnBeginResp
	err = m.Unmarshal(resp.Payload)
	resp.release()
	if err != nil {
		return nil, err
	}
	return &Txn{cc: cc, id: m.TxnID, startTS: m.StartTS, timeout: c.cfg.timeout}, nil
}

// StartTS is the commit timestamp the snapshot reads as of.
func (t *Txn) StartTS() uint64 { return t.startTS }

// Apply stages a batch of mutations into the transaction. Staged rows
// have no RIDs until Commit, so the result's RIDs are all zero; per-op
// errors (duplicate key against the snapshot, bad row) are attributed
// as usual and staging failures leave the batch unstaged.
func (t *Txn) Apply(table string, b *Batch) (ApplyResult, error) {
	if t.done {
		return ApplyResult{}, errors.New("client: transaction finished")
	}
	return t.cc.apply(&wire.ApplyReq{Table: table, Ops: b.ops, TxnID: t.id}, t.timeout)
}

// Query opens a streaming cursor over the Begin snapshot (staged
// writes excluded). The stream must be drained or closed before Commit.
func (t *Txn) Query(table string, opts ...QueryOption) (*Rows, error) {
	if t.done {
		return nil, errors.New("client: transaction finished")
	}
	return t.cc.query(table, t.id, opts, t.timeout)
}

// Commit atomically applies every staged write. On ErrTxnConflict the
// transaction rolled back cleanly and can be retried from Begin. A
// transport error is ambiguous: the commit may or may not have landed,
// exactly like a timed-out Apply.
func (t *Txn) Commit() error {
	if t.done {
		return errors.New("client: transaction finished")
	}
	t.done = true
	err := t.finish(wire.TTxnCommit)
	if se, ok := err.(*ServerError); ok && se.Code == wire.ErrCodeTxnConflict {
		return ErrTxnConflict
	}
	return err
}

// Abort discards the transaction's staged writes. Aborting an already
// finished transaction is a no-op.
func (t *Txn) Abort() error {
	if t.done {
		return nil
	}
	t.done = true
	return t.finish(wire.TTxnAbort)
}

// finish round-trips the commit or abort request.
func (t *Txn) finish(typ uint8) error {
	m := wire.TxnFinishReq{TxnID: t.id}
	req := wire.NewFrame()
	req.B = m.Marshal(req.B)
	resp, err := t.cc.roundTrip(typ, req, t.timeout)
	req.Release()
	resp.release()
	return err
}
