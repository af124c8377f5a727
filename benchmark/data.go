package main

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/tuple"
)

const (
	tableName = "items"
	indexName = "by_id"

	tsBase = 1_300_000_000 // ts = tsBase + version

	// hotKeys is the shared set only transactions touch (ids
	// [0, hotKeys)); raw one-op updates stay off it because core
	// documents mixing raw updates and transactions on one row as
	// unsupported, plain reads because they can miss a row mid-commit
	// (genStream).
	hotKeys = 1000

	nameLen    = 24
	fixedBytes = 8 + 4 + 1 + 8 + 8 // id, score, flag, ts, chk
)

// Column positions in the items schema.
const (
	colID = iota
	colScore
	colFlag
	colTS
	colName
	colBody
	colChk
	numCols
)

var (
	cachedFields  = []string{"score", "flag", "ts"}
	coveredFields = []string{"id", "score", "flag"}
)

func itemsSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "score", Kind: tuple.KindInt32},
		tuple.Field{Name: "flag", Kind: tuple.KindBool},
		tuple.Field{Name: "ts", Kind: tuple.KindTimestamp},
		tuple.Field{Name: "name", Kind: tuple.KindString},
		tuple.Field{Name: "body", Kind: tuple.KindString},
		tuple.Field{Name: "chk", Kind: tuple.KindInt64},
	)
}

// mix is splitmix64 over (id, version): every derived field of a row
// comes from it, so a row read back validates itself.
func mix(id int64, ver uint32) uint64 {
	x := uint64(id)*0x9E3779B97F4A7C15 + uint64(ver)*0xD1B54A32D192ED03 + 0x632BE59BD9B4E019
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// filler is sliced (never copied byte by byte) to make row bodies.
const filler = "no bits left behind: unused space in index leaves, slack in fixed-width encodings and cold " +
	"tuples in hot pages are all storage the engine already paid for; recycle them before buying more. " +
	"no bits left behind: unused space in index leaves, slack in fixed-width encodings and cold tuples."

// bodyLen is fixed per id (80..120 B), so an update never changes a
// row's size and always lands in place.
func bodyLen(id int64) int { return 80 + int(uint64(id)%41) }

func scoreOf(id int64, ver uint32) int32 { return int32(ver<<10 | uint32(mix(id, 0)&1023)) }
func flagOf(id int64, ver uint32) bool   { return mix(id, ver)&(1<<20) != 0 }
func chkOf(id int64, ver uint32) int64   { return int64(mix(id, ver) ^ 0x5DEECE66D) }

func nameOf(id int64) string {
	var b [nameLen]byte
	copy(b[:], "item-0000000000000000000")
	s := strconv.AppendInt(nil, id, 10)
	copy(b[nameLen-len(s):], s)
	return string(b[:])
}

func bodyOf(id int64, ver uint32) string {
	h := mix(id, ver)
	var hex [16]byte
	const digits = "0123456789abcdef"
	for i := range hex {
		hex[i] = digits[h>>(60-4*uint(i))&15]
	}
	off := int(h % 64)
	return string(hex[:]) + filler[off:off+bodyLen(id)-16]
}

// rowFor builds the one valid row for (id, version).
func rowFor(id int64, ver uint32) tuple.Row {
	return tuple.Row{
		tuple.Int64(id),
		tuple.Int32(scoreOf(id, ver)),
		tuple.Bool(flagOf(id, ver)),
		tuple.TimestampUnix(tsBase + int64(ver)),
		tuple.String(nameOf(id)),
		tuple.String(bodyOf(id, ver)),
		tuple.Int64(chkOf(id, ver)),
	}
}

// userBytes is the logical payload of a live row: what a user stored,
// before any page, slot, index or log overhead.
func userBytes(id int64) int64 { return fixedBytes + nameLen + int64(bodyLen(id)) }

// versionOf recovers a row's version from its score.
func versionOf(score int64) uint32 { return uint32(int32(score)) >> 10 }

// checkRow validates a full row read back for id on the hot path: it
// recomputes chk from the version the row itself carries and checks
// the fields that derive from it. Full equality with rowFor is left
// to the end-of-run verification so the client's own CPU stays small
// beside the engine's.
func checkRow(row tuple.Row, id int64) (uint32, error) {
	if len(row) != numCols {
		return 0, fmt.Errorf("id %d: row has %d fields, want %d", id, len(row), numCols)
	}
	if row[colID].Int != id {
		return 0, fmt.Errorf("id %d: row carries id %d", id, row[colID].Int)
	}
	ver := versionOf(row[colScore].Int)
	switch {
	case row[colChk].Int != chkOf(id, ver):
		return ver, fmt.Errorf("id %d v%d: chk mismatch", id, ver)
	case int32(row[colScore].Int) != scoreOf(id, ver):
		return ver, fmt.Errorf("id %d v%d: score mismatch", id, ver)
	case row[colTS].Int != tsBase+int64(ver):
		return ver, fmt.Errorf("id %d v%d: ts mismatch", id, ver)
	case len(row[colName].Str) != nameLen || len(row[colBody].Str) != bodyLen(id):
		return ver, fmt.Errorf("id %d v%d: string length mismatch", id, ver)
	}
	return ver, nil
}

// checkCovered validates an (id, score, flag) projection.
func checkCovered(row tuple.Row, id int64) error {
	if len(row) != len(coveredFields) || row[0].Int != id {
		return fmt.Errorf("id %d: bad covered row %v", id, row)
	}
	ver := versionOf(row[1].Int)
	if int32(row[1].Int) != scoreOf(id, ver) || (row[2].Int != 0) != flagOf(id, ver) {
		return fmt.Errorf("id %d v%d: covered fields mismatch", id, ver)
	}
	return nil
}

// model is the driver's record of what the engine must hold. Ids at or
// above hotKeys are owned by connection id%2 and touched only by it,
// so those slots need no lock; hot keys are updated by committed
// transactions from either connection, under hotMu.
type model struct {
	rid   []uint64 // packed RID of the live row (owned keys only)
	ver   []uint32
	alive []bool

	hotMu sync.Mutex
}

func newModel(capacity int) *model {
	return &model{
		rid:   make([]uint64, capacity),
		ver:   make([]uint32, capacity),
		alive: make([]bool, capacity),
	}
}

// committedHot records a committed transaction's new version of a hot
// key. First-committer-wins makes versions advance one at a time; max
// keeps the model right whichever connection records first.
func (m *model) committedHot(id int64, ver uint32) {
	m.hotMu.Lock()
	if ver > m.ver[id] {
		m.ver[id] = ver
	}
	m.hotMu.Unlock()
}

// liveStats returns the count and user bytes of live rows.
func (m *model) liveStats() (rows, bytes int64) {
	for id, a := range m.alive {
		if a {
			rows++
			bytes += userBytes(int64(id))
		}
	}
	return rows, bytes
}
