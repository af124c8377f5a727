package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// WAL record types. The log itself treats these as opaque (see
// internal/wal); their payloads are defined here.
//
// Batch records use a compact uvarint encoding — they are the hot path,
// one per Apply. DDL records are JSON: they are rare, and sharing the
// manifest's field structs keeps the two catalogs' schemas from
// drifting apart.
const (
	recBatch           uint8 = 1
	recCreateTable     uint8 = 2
	recCreateIndex     uint8 = 3
	recDropTable       uint8 = 4
	recCheckpointBegin uint8 = 5
	recCheckpointEnd   uint8 = 6
	// recTxn is one committed transaction: commit timestamp, then each
	// touched table's actions in the recBatch sub-format. Replay applies
	// the transaction whole (the record only exists if commit reached the
	// log) and flattened — post-GC state, no version metadata.
	recTxn uint8 = 7
	// recAdoptLayout is a table's adoption of its packed record layout,
	// logged before any record written in it.
	recAdoptLayout uint8 = 8
	// recAdoptStrings is recAdoptLayout for a layout with digit slots on
	// VARCHARs (tuple.DigitSlots), and recAdoptRules for one with any
	// other string slot (tuple.RuleSlots). A binary that predates a kind
	// of slot fails on the unknown type rather than decode the JSON
	// without the slots' fields and misread every record.
	recAdoptStrings uint8 = 9
	recAdoptRules   uint8 = 10
)

// adoptTypes is the record type an adoption is logged under, by the
// string slots its layout holds.
var adoptTypes = [...]uint8{
	tuple.NoStringSlots: recAdoptLayout,
	tuple.DigitSlots:    recAdoptStrings,
	tuple.RuleSlots:     recAdoptRules,
}

// Action kinds within a batch record.
const (
	actPut uint8 = 1 // heap record (re)installed at a RID
	actDel uint8 = 2 // heap record removed
	actIdx uint8 = 3 // one index run (sorted entries) applied to a tree
)

// walAction is one decoded redo step of a batch: a physical heap
// effect or an index run. Actions replay in log order, which is effect
// order — the batch pipeline appends each action only after its effect
// landed.
type walAction struct {
	kind uint8
	// actPut: rid is the pre-image's address (InvalidRID for an insert),
	// newRID the post-image's (equal to rid for an update in place).
	// actDel: rid only.
	rid, newRID storage.RID
	rec         []byte
	// sum is heap.RecordSum of the record the action removed from rid:
	// every actDel, and an actPut that relocated. Redo removes only a
	// record that still has it (heap.File.RedoDelete).
	sum uint32
	// actIdx: the target index and the sorted run applied to its tree.
	index   string
	entries []btree.RunEntry
}

// walBatch accumulates one Apply's redo actions, encoding each into
// its payload buffer as it is reported — the arguments are only valid
// at call time (index runs reuse their entry buffers), and deferring
// the encode would mean copying them twice. Instances are pooled
// with the pipeline that fills them (Apply is the hot path). A nil
// *walBatch (WAL disabled) makes every append a no-op, so the pipeline
// threads it unconditionally.
type walBatch struct {
	n   int    // actions encoded
	buf []byte // payload: table header + encoded actions
}

// reset primes the encoder for one Apply against the named table.
func (w *walBatch) reset(table string) {
	w.n = 0
	w.buf = binary.AppendUvarint(w.buf[:0], uint64(len(table)))
	w.buf = append(w.buf, table...)
}

// put logs rec landing at newRID in place of the record at rid
// (InvalidRID: an insert). sum is the replaced record's, logged only
// when it stayed behind at another RID.
func (w *walBatch) put(rid, newRID storage.RID, rec []byte, sum uint32) {
	if w == nil {
		return
	}
	w.n++
	w.buf = append(w.buf, actPut)
	w.buf = binary.AppendUvarint(w.buf, rid.Pack())
	w.buf = binary.AppendUvarint(w.buf, newRID.Pack())
	if relocated(rid, newRID) {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, sum)
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(len(rec)))
	w.buf = append(w.buf, rec...)
}

func (w *walBatch) del(rid storage.RID, sum uint32) {
	if w == nil {
		return
	}
	w.n++
	w.buf = append(w.buf, actDel)
	w.buf = binary.AppendUvarint(w.buf, rid.Pack())
	w.buf = binary.LittleEndian.AppendUint32(w.buf, sum)
}

// idx records a run applied to the named index.
func (w *walBatch) idx(name string, entries ...btree.RunEntry) {
	if w == nil || len(entries) == 0 {
		return
	}
	w.n++
	w.buf = append(w.buf, actIdx)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(name)))
	w.buf = append(w.buf, name...)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(entries)))
	for _, e := range entries {
		op := byte(0)
		if e.Op == btree.RunDelete || e.Op == btree.RunDeleteIf {
			op = 1
		}
		w.buf = append(w.buf, op)
		w.buf = binary.AppendUvarint(w.buf, uint64(len(e.Key)))
		w.buf = append(w.buf, e.Key...)
		w.buf = binary.AppendUvarint(w.buf, e.Value)
	}
}

// relocated reports whether a put moved an existing record from rid to
// newRID, leaving a delete of rid to redo.
func relocated(rid, newRID storage.RID) bool { return rid.Valid() && rid != newRID }

func (w *walBatch) empty() bool { return w == nil || w.n == 0 }

// payload returns the encoded batch record. Valid until the next reset.
func (w *walBatch) payload() []byte { return w.buf }

// batchDecoder walks an encoded batch payload.
type batchDecoder struct {
	buf []byte
	err error
}

func (d *batchDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.err = fmt.Errorf("core: wal batch record: bad uvarint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// count reads a count of items of at least min bytes each, and fails on
// one the bytes left cannot hold, before the count sizes anything.
func (d *batchDecoder) count(min int) uint64 {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)/min) {
		d.err = fmt.Errorf("core: wal batch record: %d items cannot fit in %d bytes", n, len(d.buf))
		return 0
	}
	return n
}

func (d *batchDecoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)) < n {
		d.err = fmt.Errorf("core: wal batch record: truncated")
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *batchDecoder) uint32() uint32 {
	b := d.bytes(4)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *batchDecoder) byte() byte {
	b := d.bytes(1)
	if d.err != nil {
		return 0
	}
	return b[0]
}

// decodeBatch parses a batch record payload: the table header followed
// by actions until the payload is exhausted. Slices alias the payload.
func decodeBatch(payload []byte) (table string, actions []walAction, err error) {
	d := &batchDecoder{buf: payload}
	table = string(d.bytes(d.uvarint()))
	for len(d.buf) > 0 && d.err == nil {
		a := walAction{kind: d.byte()}
		switch a.kind {
		case actPut:
			a.rid = storage.UnpackRID(d.uvarint())
			a.newRID = storage.UnpackRID(d.uvarint())
			if relocated(a.rid, a.newRID) {
				a.sum = d.uint32()
			}
			a.rec = d.bytes(d.uvarint())
		case actDel:
			a.rid = storage.UnpackRID(d.uvarint())
			a.sum = d.uint32()
		case actIdx:
			a.index = string(d.bytes(d.uvarint()))
			ne := d.count(3) // an entry's op byte, key length and value
			a.entries = make([]btree.RunEntry, 0, ne)
			for j := uint64(0); j < ne && d.err == nil; j++ {
				op := btree.RunUpsert
				if d.byte() == 1 {
					op = btree.RunDelete
				}
				key := d.bytes(d.uvarint())
				val := d.uvarint()
				a.entries = append(a.entries, btree.RunEntry{Key: key, Value: val, Op: op})
			}
		default:
			if d.err == nil {
				d.err = fmt.Errorf("core: wal batch record: unknown action %d", a.kind)
			}
		}
		actions = append(actions, a)
	}
	if d.err != nil {
		return "", nil, d.err
	}
	return table, actions, nil
}

// The recTxn payload is built in txn.go (commitEffects); decodeTxn
// parses a recTxn payload into its commit timestamp and per-table
// recBatch-format sub-payloads (aliasing the input).
func decodeTxn(payload []byte) (ts uint64, subs [][]byte, err error) {
	d := &batchDecoder{buf: payload}
	ts = d.uvarint()
	n := d.count(1) // a sub-record's length takes a byte
	for i := uint64(0); i < n && d.err == nil; i++ {
		subs = append(subs, d.bytes(d.uvarint()))
	}
	if d.err != nil {
		return 0, nil, d.err
	}
	return ts, subs, nil
}

// ddlCreateIndex is the JSON payload of a recCreateIndex record: the
// index's table and its spec. A recCreateTable payload is a tableSpec.
type ddlCreateIndex struct {
	Table string `json:"table"`
	indexSpec
}

// ddlAdoptLayout is the JSON payload of a recAdoptLayout record.
type ddlAdoptLayout struct {
	Table  string               `json:"table"`
	Layout []tuple.FieldPacking `json:"layout"`
}

func encodeJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// The DDL structs are plain data; marshal cannot fail.
		panic(fmt.Sprintf("core: encoding wal ddl record: %v", err))
	}
	return b
}

func encodeCheckpointEnd(beginLSN uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], beginLSN)
	return b[:]
}
