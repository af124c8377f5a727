package core

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/storage"
	"repro/internal/tuple"
)

// TestStageSetSpills: the staging sets scan an inline array while they
// are small and spill to a map past stageInline members; either way a
// member is found by owner and key bytes together, and truncate takes
// the newest members back off.
func TestStageSetSpills(t *testing.T) {
	ixA, ixB := new(Index), new(Index)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
	var s stageSet[*Index, int]
	const n = 3 * stageInline
	for i := 0; i < n; i++ {
		s.add(ixA, key(i), i)
		// The same bytes under another owner are another member.
		s.add(ixB, key(i), -i)
		if spilled := len(s.members) > stageInline; spilled != (s.spill != nil) {
			t.Fatalf("%d members: spilled = %v", len(s.members), s.spill != nil)
		}
	}
	has := func(upTo int) {
		t.Helper()
		for i := 0; i < n; i++ {
			a, b := s.find(ixA, key(i)), s.find(ixB, key(i))
			if want := i < upTo; (a != nil) != want || (b != nil) != want {
				t.Fatalf("key %d: found %v/%v, want %v", i, a != nil, b != nil, want)
			}
			if a != nil && (a.val != i || b.val != -i) {
				t.Fatalf("key %d: values %d/%d", i, a.val, b.val)
			}
		}
		if s.find(ixA, key(n)) != nil || s.find(new(Index), key(0)) != nil {
			t.Fatal("found a member never added")
		}
	}
	has(n)
	s.truncate(2 * (n / 2)) // the members of the first n/2 keys stay
	has(n / 2)
	for i := n / 2; i < n; i++ { // and the rest come back
		s.add(ixA, key(i), i)
		s.add(ixB, key(i), -i)
	}
	has(n)

	// Write targets: an owner with no key bytes.
	var w stageSet[writeTarget, struct{}]
	for p := 0; p < n; p++ {
		w.add(writeTarget{rid: storage.RID{Page: storage.PageID(p)}}, nil, struct{}{})
	}
	if w.spill == nil || w.find(writeTarget{rid: storage.RID{Page: 7}}, nil) == nil ||
		w.find(writeTarget{rid: storage.RID{Page: n}}, nil) != nil {
		t.Fatal("write targets: spill or lookup wrong")
	}
}

// TestTxnLargeStageStaysLinear stages one 10,000-op transaction — 5,000
// updates (half of them moving their unique key) and 5,000 inserts — in
// batches of 100, so every staging set spills far past its inline size.
// A re-written target and a duplicate claim at op 9,999 are refused with
// the batch and op of the write they collide with; each failed batch
// leaves nothing staged (staging it again without the bad op succeeds,
// which it could not if its targets or claims had stayed); and after the
// commit every read path agrees with the model.
func TestTxnLargeStageStaysLinear(t *testing.T) {
	e, err := NewEngine(Options{PageSize: 4096, BufferPoolPages: 1024})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	tb := kvTable(t, e)
	const seeded, batches, per, moved = 5000, 100, 100, 20000
	var sb Batch
	for k := int64(0); k < seeded; k++ {
		sb.Insert(kvRow(k, k))
	}
	res, err := tb.Apply(&sb, WithResultRIDs())
	if err != nil {
		t.Fatalf("seed: %v", err)
	}
	rids := res.RIDs

	// Op i of batch j is op n = 100j + i of the transaction: an even n
	// updates seeded row n/2 (moving an even row's key past moved), an odd
	// n inserts key seeded + n/2.
	op := func(b *Batch, n int) {
		if s := int64(n / 2); n%2 == 1 {
			b.Insert(kvRow(seeded+s, int64(n)))
		} else if s%2 == 0 {
			b.Update(rids[s], kvRow(s+moved, s))
		} else {
			b.Update(rids[s], kvRow(s, -s))
		}
	}
	model := make(map[int64]int64)
	for n := 0; n < batches*per; n++ {
		if s := int64(n / 2); n%2 == 1 {
			model[seeded+s] = int64(n)
		} else if s%2 == 0 {
			model[s+moved] = s
		} else {
			model[s] = -s
		}
	}
	txn := e.Begin()
	refused := func(b *Batch, wantOp int, wantMsg string) {
		t.Helper()
		res, err := txn.Apply(tb, b)
		if err == nil || res.ErrIndex != wantOp || !strings.Contains(err.Error(), wantMsg) {
			t.Fatalf("Apply = %v (ErrIndex %d), want op %d refused with %q", err, res.ErrIndex, wantOp, wantMsg)
		}
		if res.Applied != 0 {
			t.Fatalf("a refused batch reports %d ops applied", res.Applied)
		}
		b.Reset()
	}
	for j := 0; j < batches; j++ {
		var b Batch
		switch j {
		case 51:
			// Op 40 updates the row op 20 of batch 7 already wrote.
			for i := 0; i < per; i++ {
				if i == 40 {
					b.Update(rids[(7*per+20)/2], kvRow(-1, -1))
				} else {
					op(&b, j*per+i)
				}
			}
			refused(&b, 40, "already written by op 20 of batch 7")
		case batches - 1:
			// Op 99 — op 9,999 of the transaction — claims the key op 5 of
			// batch 60 inserted.
			for i := 0; i < per-1; i++ {
				op(&b, j*per+i)
			}
			b.Insert(kvRow(seeded+(60*per+5)/2, -1))
			refused(&b, per-1, "duplicate key staged by op 5 of batch 60")
		}
		for i := 0; i < per; i++ {
			op(&b, j*per+i)
		}
		if res, err := txn.Apply(tb, &b); err != nil || res.Applied != per {
			t.Fatalf("batch %d: %+v %v", j, res, err)
		}
	}
	if n := len(txn.claimed.members); n != seeded+seeded/2 || txn.claimed.spill == nil {
		t.Fatalf("%d claims staged (spilled %v), want %d", n, txn.claimed.spill != nil, seeded+seeded/2)
	}
	if n, m := len(txn.writes.members), len(txn.freed.members); n != seeded || m != seeded/2 {
		t.Fatalf("%d targets and %d freed keys staged, want %d and %d", n, m, seeded, seeded/2)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	if got := tb.Rows(); got != int64(len(model)) {
		t.Fatalf("Rows() = %d, model has %d", got, len(model))
	}
	same := func(path string, got map[int64]int64) {
		t.Helper()
		if len(got) != len(model) {
			t.Fatalf("%s: %d rows, model has %d", path, len(got), len(model))
		}
		for k, v := range model {
			if g, ok := got[k]; !ok || g != v {
				t.Fatalf("%s: key %d = %d (present %v), model %d", path, k, g, ok, v)
			}
		}
	}
	same("heap scan", readAll(t)(tb.Query()))
	same("index scan", readAll(t)(tb.Query(WithIndex("by_k"))))
	same("reverse index scan", readAll(t)(tb.Query(WithIndex("by_k"), WithReverse())))
	same("parallel index scan", readAll(t)(tb.Query(WithIndex("by_k"), WithParallel(3))))
	keys := make([][]tuple.Value, 0, seeded+len(model))
	for k := int64(0); k < seeded; k++ { // every moved-away key must be gone
		keys = append(keys, []tuple.Value{tuple.Int64(k)})
	}
	for k := range model {
		if k >= seeded {
			keys = append(keys, []tuple.Value{tuple.Int64(k)})
		}
	}
	got := make(map[int64]int64)
	for _, k := range keys {
		row, res, err := tb.indexes["by_k"].Lookup(nil, k...)
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		if res.Found {
			got[row[0].Int] = row[1].Int
		}
	}
	same("Lookup", got)
	if err := tb.indexes["by_k"].Tree().CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity: %v", err)
	}
}

// TestTxnApplyKeepsNothingOfBatch: a transaction stages its own copies,
// not the caller's rows. After each Apply everything the batch held is
// overwritten — the rows' value slots, their bytes values and the buffer
// their strings are views of, as a server's decoded request views its
// frame — and the batch is reset and reused; Commit must still land
// exactly what was staged, index keys (computed from the staged rows at
// commit) included.
func TestTxnApplyKeepsNothingOfBatch(t *testing.T) {
	e := newTestEngine(t)
	tb, err := e.CreateTable("docs", tuple.MustSchema(
		tuple.Field{Name: "name", Kind: tuple.KindString},
		tuple.Field{Name: "body", Kind: tuple.KindBytes},
	))
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	ix, err := tb.CreateIndex("by_name", []string{"name"})
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	seed, err := tb.Insert(tuple.Row{tuple.String("seed"), tuple.Bytes([]byte("seed body"))})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}

	frame := make([]byte, 256) // what the staged strings view; never reallocated
	used := 0
	var rows []tuple.Row
	row := func(name string) tuple.Row {
		s := unsafe.String(&frame[used], len(name))
		used += copy(frame[used:], name)
		r := tuple.Row{tuple.String(s), tuple.Bytes([]byte(name + " body"))}
		rows = append(rows, r)
		return r
	}
	tx := e.Begin()
	var b Batch
	stage := func() {
		t.Helper()
		if res, err := tx.Apply(tb, &b); err != nil || res.Applied != b.Len() {
			t.Fatalf("Apply: %+v %v", res, err)
		}
		for i := range frame {
			frame[i] = 0xDB
		}
		for _, r := range rows {
			for i := range r[1].Raw {
				r[1].Raw[i] = 0xDB
			}
			r[0], r[1] = tuple.String("poisoned"), tuple.Bytes([]byte("poisoned"))
		}
		b.Reset()
		used, rows = 0, nil
	}
	b.Insert(row("alpha")).Insert(row("beta")).Update(seed, row("seed2"))
	stage()
	b.Insert(row("gamma"))
	stage()
	if err := tx.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}

	for _, name := range []string{"alpha", "beta", "seed2", "gamma"} {
		got, res, err := ix.Lookup(nil, tuple.String(name))
		if err != nil || !res.Found {
			t.Fatalf("Lookup %q: found=%v err=%v", name, res.Found, err)
		}
		if got[0].Str != name || string(got[1].Raw) != name+" body" {
			t.Fatalf("Lookup %q = %v", name, got)
		}
	}
	if _, res, err := ix.Lookup(nil, tuple.String("seed")); err != nil || res.Found {
		t.Fatalf("the updated row's old key still finds a row: found=%v err=%v", res.Found, err)
	}
	if n := tb.Rows(); n != 4 {
		t.Fatalf("Rows() = %d, want 4", n)
	}
	if err := ix.Tree().CheckIntegrity(); err != nil {
		t.Fatalf("CheckIntegrity: %v", err)
	}
}

// TestTxnGCPassesWithPinnedSnapshot: a snapshot held open — a client
// that Begins and walks away — pins the GC watermark, so the backlog of
// dead versions cannot fall below what it protects. GC passes must stay
// proportional to the dead versions commits create, not run on every
// commit; and once the snapshot goes, the backlog is collected within
// one threshold's worth of further commits. Counts, not clocks.
func TestTxnGCPassesWithPinnedSnapshot(t *testing.T) {
	e := newTestEngine(t)
	tb := kvTable(t, e)
	ix := tb.indexes["by_k"]
	for k := int64(0); k < 2; k++ {
		if _, err := tb.Insert(kvRow(k, 0)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	v := int64(0)
	commit := func() { // two rows updated: two dead versions
		v++
		tx := e.Begin()
		var b Batch
		for k := int64(0); k < 2; k++ {
			rid, _, err := ix.LookupRID(tuple.Int64(k))
			if err != nil {
				t.Fatalf("LookupRID: %v", err)
			}
			b.Update(rid, kvRow(k, v))
		}
		if _, err := tx.Apply(tb, &b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}

	idle := e.Begin()
	const commits = 600
	passes := e.gcPasses.Load()
	for i := 0; i < commits; i++ {
		commit()
	}
	dead := 2 * commits
	if n, most := e.gcPasses.Load()-passes, int64((dead+gcDeadThreshold-1)/gcDeadThreshold+1); n > most {
		t.Fatalf("%d GC passes for %d dead versions under a pinned snapshot, want ≤ %d", n, dead, most)
	}
	if got := e.deadVersions.Load(); got != int64(dead) {
		t.Fatalf("backlog %d under the pinned snapshot, want all %d dead versions", got, dead)
	}
	if got := readAll(t)(idle.Query(tb, WithIndex("by_k"))); got[0] != 0 || got[1] != 0 {
		t.Fatalf("pinned snapshot reads %v, want the seed rows", got)
	}

	idle.Abort()
	for n := 0; e.deadVersions.Load() != 0; n++ {
		if n == gcDeadThreshold/2 {
			t.Fatalf("backlog %d left %d commits after the snapshot went", e.deadVersions.Load(), n)
		}
		commit()
	}
	if got := readAll(t)(tb.Query(WithIndex("by_k"))); len(got) != 2 || got[0] != v || got[1] != v {
		t.Fatalf("latest = %v, want both rows at %d", got, v)
	}
}
