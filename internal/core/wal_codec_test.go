package core

import (
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/storage"
)

// validBatch is a batch payload holding one action of every kind: an
// insert, a relocating put, a delete and an index run.
func validBatch() []byte {
	var w walBatch
	w.reset("t")
	w.put(storage.InvalidRID, storage.RID{Page: 3, Slot: 1}, []byte("new row"), 0)
	w.put(storage.RID{Page: 2, Slot: 4}, storage.RID{Page: 5, Slot: 0}, []byte("moved"), 0xfeedbeef)
	w.del(storage.RID{Page: 2, Slot: 7}, 42)
	w.idx("by_id",
		btree.RunEntry{Key: []byte{1, 2}, Value: 9, Op: btree.RunUpsert},
		btree.RunEntry{Key: []byte{3}, Value: 1 << 40, Op: btree.RunDelete})
	return append([]byte(nil), w.payload()...)
}

// hugeCount is a batch payload whose index run declares 2^62 entries.
func hugeCount() []byte {
	var w walBatch
	w.reset("t")
	w.buf = append(w.buf, actIdx)
	w.buf = binary.AppendUvarint(w.buf, uint64(len("by_id")))
	w.buf = append(w.buf, "by_id"...)
	w.buf = binary.AppendUvarint(w.buf, 1<<62)
	return w.buf
}

// txnOf wraps batch payloads as a recTxn payload committed at ts.
func txnOf(ts uint64, subs ...[]byte) []byte {
	b := binary.AppendUvarint(nil, ts)
	b = binary.AppendUvarint(b, uint64(len(subs)))
	for _, s := range subs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// reencode encodes decoded actions back into a batch payload.
func reencode(table string, actions []walAction) []byte {
	var w walBatch
	w.reset(table)
	for _, a := range actions {
		switch a.kind {
		case actPut:
			w.put(a.rid, a.newRID, a.rec, a.sum)
		case actDel:
			w.del(a.rid, a.sum)
		case actIdx:
			w.idx(a.index, a.entries...)
		}
	}
	return w.payload()
}

// FuzzDecodeBatch: no payload panics the batch or transaction decoder
// or makes it allocate for a count the payload cannot hold, and what
// decodes encodes back to a payload that decodes the same.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(validBatch())
	f.Add(hugeCount())
	f.Add(txnOf(7, validBatch(), validBatch()))
	f.Add(txnOf(7, hugeCount()))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 7), 1<<62))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if _, subs, err := decodeTxn(payload); err == nil && len(subs) > len(payload) {
			t.Fatalf("%d sub-records from %d bytes", len(subs), len(payload))
		}
		table, actions, err := decodeBatch(payload)
		if err != nil {
			return
		}
		entries := 0
		for _, a := range actions {
			entries += len(a.entries)
		}
		if entries*3 > len(payload) {
			t.Fatalf("%d index entries from %d bytes", entries, len(payload))
		}
		// The encoder logs no empty index run.
		actions = slices.DeleteFunc(actions, func(a walAction) bool { return a.kind == actIdx && len(a.entries) == 0 })
		again, actions2, err := decodeBatch(reencode(table, actions))
		if err != nil || again != table || len(actions2) != len(actions) || len(actions) > 0 && !reflect.DeepEqual(actions, actions2) {
			t.Fatalf("re-encoded %q %+v decodes as %q %+v (%v)", table, actions, again, actions2, err)
		}
	})
}

func TestDecodeBatchRoundTrip(t *testing.T) {
	table, actions, err := decodeBatch(validBatch())
	if err != nil || table != "t" || len(actions) != 4 {
		t.Fatalf("decodeBatch = %q, %d actions, %v", table, len(actions), err)
	}
	if a := actions[1]; a.sum != 0xfeedbeef || string(a.rec) != "moved" || a.newRID != (storage.RID{Page: 5, Slot: 0}) {
		t.Fatalf("relocating put decoded as %+v", a)
	}
	if a := actions[3]; a.index != "by_id" || len(a.entries) != 2 || a.entries[1].Op != btree.RunDelete || a.entries[1].Value != 1<<40 {
		t.Fatalf("index run decoded as %+v", a)
	}
}

// TestOpenRejectsAnOversizedCount: a CRC-valid log record whose index
// run, or whose transaction, declares more items than its payload could
// hold fails the open with an error, before anything is sized by it.
func TestOpenRejectsAnOversizedCount(t *testing.T) {
	for _, c := range []struct {
		name    string
		typ     uint8
		payload []byte
	}{
		{"batch", recBatch, hugeCount()},
		{"txn", recTxn, binary.AppendUvarint(binary.AppendUvarint(nil, 7), 1<<62)},
		{"txn batch", recTxn, txnOf(7, hugeCount())},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			e, tbl := newRedoTable(t, dir)
			if _, err := tbl.Insert(redoRow(1, 1, "one")); err != nil {
				t.Fatal(err)
			}
			if _, err := e.wal.Append(c.typ, c.payload); err != nil {
				t.Fatal(err)
			}
			if err := e.wal.Sync(); err != nil {
				t.Fatal(err)
			}
			crash := t.TempDir()
			copyDBFiles(t, dir, crash)
			e2, err := NewEngine(noCheckpointOptions(crash))
			if err == nil {
				e2.Close()
				t.Fatal("the open succeeded")
			}
			if !strings.Contains(err.Error(), "cannot fit") {
				t.Fatalf("open = %v, want the count refused", err)
			}
		})
	}
}
