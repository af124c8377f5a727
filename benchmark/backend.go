package main

import (
	"errors"
	"fmt"

	"repro/client"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// backend is the surface one worker drives: the served path through
// the real client (measured and traced runs) or the same calls made
// straight into core (the embedded replay that splits a request's
// time into layers). Rows handed to visit are only valid during the
// call.
type backend interface {
	get(id int64) (tuple.Row, bool, error)
	covered(id int64) (tuple.Row, bool, error)
	scan(lo, hi int64, visit func(tuple.Row) error) (int, error)
	// mutate applies one op and returns the row's packed RID afterwards
	// (0 for deletes). row is nil for deletes.
	mutate(kind opKind, rid uint64, row tuple.Row) (uint64, error)
	// txn updates hot keys k and k+1 to their next versions in one
	// snapshot transaction and returns the versions it wrote.
	txn(k int64, w *worker) (vers [2]uint32, conflict bool, err error)
}

// --- served path ---

type clientBackend struct{ c *client.Client }

func (b clientBackend) get(id int64) (tuple.Row, bool, error) {
	return b.c.Get(tableName, indexName, client.Int64(id))
}

func (b clientBackend) covered(id int64) (tuple.Row, bool, error) {
	rows, err := b.c.Query(tableName, client.WithIndex(indexName), client.WithPrefix(client.Int64(id)),
		client.WithProjection(coveredFields...), client.WithLimit(1))
	if err != nil {
		return nil, false, err
	}
	defer rows.Close()
	if !rows.Next() {
		return nil, false, rows.Err()
	}
	return rows.Row(), true, nil
}

func (b clientBackend) scan(lo, hi int64, visit func(tuple.Row) error) (int, error) {
	rows, err := b.c.Query(tableName, client.WithIndex(indexName),
		client.WithKeyRange(client.Row{client.Int64(lo)}, client.Row{client.Int64(hi)}),
		client.WithProjection(coveredFields...))
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		if err := visit(rows.Row()); err != nil {
			return n, err
		}
		n++
	}
	return n, rows.Err()
}

func clientBatch(kind opKind, rid uint64, row tuple.Row) *client.Batch {
	var b client.Batch
	switch kind {
	case opInsert:
		b.Insert(row)
	case opDelete:
		b.Delete(rid)
	default:
		b.Update(rid, row)
	}
	return &b
}

func (b clientBackend) mutate(kind opKind, rid uint64, row tuple.Row) (uint64, error) {
	res, err := b.c.Apply(tableName, clientBatch(kind, rid, row))
	if err != nil {
		return 0, err
	}
	if res.Applied != 1 {
		return 0, fmt.Errorf("apply: %v", res.Err(0))
	}
	if kind == opDelete {
		return 0, nil
	}
	return res.RIDs[0], nil
}

func (b clientBackend) txn(k int64, w *worker) (vers [2]uint32, conflict bool, err error) {
	tx, err := b.c.Begin()
	if err != nil {
		return vers, false, err
	}
	defer tx.Abort() // no-op once Commit ran
	rows, err := tx.Query(tableName, client.WithIndex(indexName),
		client.WithKeyRange(client.Row{client.Int64(k)}, client.Row{client.Int64(k + 2)}), client.WithRIDs())
	if err != nil {
		return vers, false, err
	}
	var batch client.Batch
	n := 0
	for rows.Next() {
		ver, err := nextHotVersion(rows.Row(), k, n)
		if err != nil {
			rows.Close()
			return vers, false, err
		}
		vers[n] = ver
		batch.Update(rows.RID(), rowFor(k+int64(n), ver))
		n++
	}
	rows.Close()
	if err := rows.Err(); err != nil {
		return vers, false, err
	}
	if n != 2 {
		return vers, false, fmt.Errorf("txn: snapshot read of hot keys %d,%d returned %d rows", k, k+1, n)
	}
	res, err := tx.Apply(tableName, &batch)
	if err != nil {
		return vers, false, err
	}
	if res.Applied != 2 {
		return vers, false, fmt.Errorf("txn: stage: %v %v", res.Err(0), res.Err(1))
	}
	if err := tx.Commit(); err != nil {
		if errors.Is(err, client.ErrTxnConflict) {
			return vers, true, nil
		}
		return vers, false, err
	}
	return vers, false, nil
}

// nextHotVersion validates the i-th row of a transaction's snapshot
// read of hot keys k, k+1 and returns the version to write next.
func nextHotVersion(row tuple.Row, k int64, i int) (uint32, error) {
	if i >= 2 {
		return 0, fmt.Errorf("txn: snapshot read of hot keys %d,%d returned extra rows", k, k+1)
	}
	ver, err := checkRow(row, k+int64(i))
	return ver + 1, err
}

// --- embedded path ---

// coreBackend makes the calls the server makes for each request, in
// process, with a span around each.
type coreBackend struct {
	eng *core.Engine
	tbl *core.Table
	ix  *core.Index
	row tuple.Row // LookupInto destination, reused
}

func (b *coreBackend) get(id int64) (tuple.Row, bool, error) {
	row, res, err := b.ix.LookupInto(b.row, nil, tuple.Int64(id))
	if row != nil {
		b.row = row[:0]
	}
	return row, res.Found, err
}

func (b *coreBackend) covered(id int64) (tuple.Row, bool, error) {
	cur, err := b.tbl.Query(core.WithIndex(indexName), core.WithPrefix(tuple.Int64(id)),
		core.WithProjection(coveredFields...), core.WithLimit(1))
	if err != nil {
		return nil, false, err
	}
	defer cur.Close()
	if !cur.Next() {
		return nil, false, cur.Err()
	}
	return cur.Row().Clone(), true, nil
}

func (b *coreBackend) scan(lo, hi int64, visit func(tuple.Row) error) (int, error) {
	cur, err := b.tbl.Query(core.WithIndex(indexName),
		core.WithKeyRange([]tuple.Value{tuple.Int64(lo)}, []tuple.Value{tuple.Int64(hi)}),
		core.WithProjection(coveredFields...))
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	n := 0
	for cur.Next() {
		if err := visit(cur.Row()); err != nil {
			return n, err
		}
		n++
	}
	return n, cur.Err()
}

func coreBatch(kind opKind, rid uint64, row tuple.Row) *core.Batch {
	var b core.Batch
	switch kind {
	case opInsert:
		b.Insert(row)
	case opDelete:
		b.Delete(storage.UnpackRID(rid))
	default:
		b.Update(storage.UnpackRID(rid), row)
	}
	return &b
}

func (b *coreBackend) mutate(kind opKind, rid uint64, row tuple.Row) (uint64, error) {
	res, err := b.tbl.Apply(coreBatch(kind, rid, row), core.WithResultRIDs())
	if err != nil {
		return 0, err
	}
	if kind == opDelete {
		return 0, nil
	}
	return res.RIDs[0].Pack(), nil
}

func (b *coreBackend) txn(k int64, w *worker) (vers [2]uint32, conflict bool, err error) {
	tx := b.eng.Begin()
	defer tx.Abort() // no-op once Commit ran
	t0 := w.rec.now()
	cur, err := tx.Query(b.tbl, core.WithIndex(indexName),
		core.WithKeyRange([]tuple.Value{tuple.Int64(k)}, []tuple.Value{tuple.Int64(k + 2)}))
	if err != nil {
		return vers, false, err
	}
	var batch core.Batch
	n := 0
	for cur.Next() {
		ver, err := nextHotVersion(cur.Row(), k, n)
		if err != nil {
			cur.Close()
			return vers, false, err
		}
		vers[n] = ver
		batch.Update(cur.RID(), rowFor(k+int64(n), ver))
		n++
	}
	cur.Close()
	if err := cur.Err(); err != nil {
		return vers, false, err
	}
	if n != 2 {
		return vers, false, fmt.Errorf("txn: snapshot read of hot keys %d,%d returned %d rows", k, k+1, n)
	}
	t1 := w.rec.child("core.txn.query", t0)
	if _, err := tx.Apply(b.tbl, &batch); err != nil {
		return vers, false, err
	}
	t2 := w.rec.child("core.txn.stage", t1)
	err = tx.Commit()
	w.rec.child("core.txn.commit", t2)
	if errors.Is(err, core.ErrTxnConflict) {
		return vers, true, nil
	}
	return vers, false, err
}
