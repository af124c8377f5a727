package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/core"
)

// verdict accumulates verification outcomes. Every row or key checked
// is one attempt; every mismatch one failure.
type verdict struct {
	checks     int64
	mismatches int64
	errs       []string // the first few, for the report
}

func (v *verdict) fail(format string, args ...any) {
	v.mismatches++
	if len(v.errs) < 8 {
		v.errs = append(v.errs, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) must(err error, what string) {
	v.checks++
	if err != nil {
		v.fail("%s: %v", what, err)
	}
}

// verifyEngine checks an engine against the model with no traffic
// running: every heap row equals the model's row for its id, the
// index yields exactly the model's live ids in order, the tree is
// structurally sound and no frame is left pinned.
func verifyEngine(v *verdict, where string, eng *core.Engine, m *model) {
	tbl, err := eng.Table(tableName)
	if err != nil {
		v.must(err, where)
		return
	}
	ix, err := tbl.Index(indexName)
	if err != nil {
		v.must(err, where)
		return
	}
	wantRows, _ := m.liveStats()

	cur, err := tbl.Query()
	if err != nil {
		v.must(err, where+": heap scan")
		return
	}
	var rows int64
	for cur.Next() {
		rows++
		v.checks++
		row := cur.Row()
		id := row[colID].Int
		if id < 0 || id >= int64(len(m.alive)) || !m.alive[id] {
			v.fail("%s: heap holds id %d, which the model does not", where, id)
			continue
		}
		if want := rowFor(id, m.ver[id]); !row.Equal(want) {
			v.fail("%s: id %d: heap row %v, model v%d", where, id, row, m.ver[id])
		}
	}
	v.must(cur.Err(), where+": heap scan")
	cur.Close()
	if rows != wantRows {
		v.fail("%s: heap scan saw %d rows, model has %d", where, rows, wantRows)
	}

	cur, err = tbl.Query(core.WithIndex(indexName), core.WithProjection("id"))
	if err != nil {
		v.must(err, where+": index scan")
		return
	}
	next := int64(0) // next model id the index must yield
	advance := func() {
		for next < int64(len(m.alive)) && !m.alive[next] {
			next++
		}
	}
	advance()
	for cur.Next() {
		v.checks++
		if id := cur.Row()[0].Int; id != next {
			v.fail("%s: index yields id %d where the model expects %d", where, id, next)
			next = id
		}
		next++
		advance()
	}
	v.must(cur.Err(), where+": index scan")
	cur.Close()
	if next < int64(len(m.alive)) {
		v.fail("%s: index scan ended before model id %d", where, next)
	}

	v.must(ix.Tree().CheckIntegrity(), where+": btree integrity")
	v.checks++
	if n := eng.Pool().PinnedFrames(); n != 0 {
		v.fail("%s: %d frames left pinned", where, n)
	}
}

// verifyRecovery opens a second engine on a copy of the serving
// engine's files as they are right now — no clean close, no final
// checkpoint, so the WAL suffix since the last automatic checkpoint
// is replayed — and checks that every acknowledged write is there.
func verifyRecovery(v *verdict, in *instance) {
	if in.spec.checkpointBeforeRecovery {
		if err := in.eng.Checkpoint(); err != nil {
			v.must(err, "recovery: checkpoint")
			return
		}
	}
	dir := filepath.Join(in.dir, "recovered")
	if err := os.Mkdir(dir, 0o755); err != nil {
		v.must(err, "recovery")
		return
	}
	defer os.RemoveAll(dir)
	for _, suffix := range []string{"", ".wal", ".manifest", ".dw"} {
		err := copyFile(filepath.Join(dir, "db"+suffix), in.dbPath()+suffix)
		if err != nil && !(suffix == ".dw" && os.IsNotExist(err)) {
			v.must(err, "recovery: copy")
			return
		}
	}
	opts := in.engineOptions(false)
	opts.Path = filepath.Join(dir, "db")
	eng, err := core.NewEngine(opts)
	if err != nil {
		v.must(err, "recovery: open")
		return
	}
	verifyEngine(v, "after recovery", eng, in.m)
	v.must(eng.Close(), "recovery: close")
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
