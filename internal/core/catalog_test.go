package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/tuple"
)

// TestReopenCatalogSpec creates a table and an index under every table
// and index option, then reopens a copy of the files twice: once by WAL
// replay alone, once from a checkpointed manifest. Each time the rebuilt
// specs must equal the created ones, and each heap must have the shard
// count the automatic rule gives.
func TestReopenCatalogSpec(t *testing.T) {
	cases := []struct {
		name  string
		topts []TableOption
		key   string
		iopts []IndexOption
	}{
		{"plain", nil, "id", nil},
		{"append_only", []TableOption{WithAppendOnlyHeap()}, "id", nil},
		{"heap_fill", []TableOption{WithHeapFillFactor(0.8)}, "id", nil},
		{"cached", nil, "id", []IndexOption{WithCache("val", "grp")}},
		{"seeded", nil, "id", []IndexOption{WithCache("val"), WithCacheSeed(42)}},
		{"index_fill", nil, "id", []IndexOption{WithFillFactor(0.9)}},
		{"non_unique", nil, "grp", []IndexOption{NonUnique()}},
	}
	dir := t.TempDir()
	e, err := NewEngine(noCheckpointOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, c := range cases {
		tbl, err := e.CreateTable(c.name, reopenSchema(t), c.topts...)
		if err != nil {
			t.Fatal(err)
		}
		var b Batch
		for i := 0; i < 50; i++ {
			b.Insert(reopenRow(i))
		}
		if _, err := tbl.Apply(&b); err != nil {
			t.Fatal(err)
		}
		// Over rows already there, so the build uses the fill factor.
		if _, err := tbl.CreateIndex("ix", []string{c.key}, c.iopts...); err != nil {
			t.Fatal(err)
		}
	}
	check := func(how string, e2 *Engine) {
		t.Helper()
		for _, c := range cases {
			tbl, tbl2 := e.tables[c.name], e2.tables[c.name]
			if tbl2 == nil {
				t.Fatalf("%s: table %q missing", how, c.name)
			}
			if !reflect.DeepEqual(tbl2.spec, tbl.spec) {
				t.Errorf("%s: table spec %+v, created %+v", how, tbl2.spec, tbl.spec)
			}
			ix, ix2 := tbl.indexes["ix"], tbl2.indexes["ix"]
			if ix2 == nil {
				t.Fatalf("%s: index on %q missing", how, c.name)
			}
			if !reflect.DeepEqual(ix2.spec, ix.spec) {
				t.Errorf("%s: index spec %+v, created %+v", how, ix2.spec, ix.spec)
			}
			if tbl2.Rows() != 50 {
				t.Errorf("%s: %q has %d rows, want 50", how, c.name, tbl2.Rows())
			}
		}
	}
	reopen := func(how string) {
		copyDir := t.TempDir()
		copyDBFiles(t, dir, copyDir)
		e2, err := NewEngine(noCheckpointOptions(copyDir))
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		defer e2.Close()
		check(how, e2)
	}
	reopen("wal replay")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopen("manifest")
}

// TestReopenParentCatalogKeys opens files whose catalog entries carry
// keys this engine no longer writes — a heap shard count, a cache bucket
// size and a predicate-log limit — from a checkpoint's manifest and from
// DDL records in the log. Both open, serve every row, and fill and hit
// the index cache.
func TestReopenParentCatalogKeys(t *testing.T) {
	const rows = 200
	insert := func(tbl *Table) {
		t.Helper()
		var b Batch
		for i := 0; i < rows; i++ {
			b.Insert(reopenRow(i))
		}
		if _, err := tbl.Apply(&b); err != nil {
			t.Fatal(err)
		}
	}
	serves := func(dir string) {
		t.Helper()
		e, err := NewEngine(noCheckpointOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tbl, err := e.Table("users")
		if err != nil {
			t.Fatal(err)
		}
		ix := mustIndex(t, tbl, "by_id")
		for i := 0; i < rows; i++ {
			for pass, want := range []bool{false, true} {
				row, res, err := ix.Lookup([]string{"id", "val"}, tuple.Int64(int64(i)))
				if err != nil || !res.Found || row[1].Int != int64(i*100) {
					t.Fatalf("row %d: %v %+v %v", i, row, res, err)
				}
				if res.CacheHit != want {
					t.Fatalf("row %d lookup %d: cache hit %v, want %v", i, pass, res.CacheHit, want)
				}
			}
		}
	}

	t.Run("manifest", func(t *testing.T) {
		dir, crash := t.TempDir(), t.TempDir()
		e, err := NewEngine(noCheckpointOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		tbl, err := e.CreateTable("users", reopenSchema(t))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.CreateIndex("by_id", []string{"id"}, WithCache("val")); err != nil {
			t.Fatal(err)
		}
		insert(tbl)
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		copyDBFiles(t, dir, crash)
		path := filepath.Join(crash, "db.manifest")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		d := json.NewDecoder(bytes.NewReader(data))
		d.UseNumber()
		if err := d.Decode(&m); err != nil {
			t.Fatal(err)
		}
		for _, mt := range m["tables"].([]any) {
			mt := mt.(map[string]any)
			mt["heap_insert_shards"] = 3
			for _, mi := range mt["indexes"].([]any) {
				mi := mi.(map[string]any)
				mi["bucket_n"] = 4
				mi["pred_log_limit"] = 1024
			}
		}
		if data, err = json.Marshal(m); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		serves(crash)
	})

	t.Run("wal", func(t *testing.T) {
		dir, crash := t.TempDir(), t.TempDir()
		e, err := NewEngine(noCheckpointOptions(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		ddl := []struct {
			typ     uint8
			payload string
		}{
			{recCreateTable, fmt.Sprintf(`{"name":"users","fields":%s,"heap_insert_shards":3}`,
				encodeJSON(manifestFields(reopenSchema(t))))},
			{recCreateIndex, `{"table":"users","name":"by_id","key_fields":["id"],"cached_fields":["val"],` +
				`"bucket_n":4,"pred_log_limit":1024,"cache_seed":1,"fill_factor":0.68}`},
		}
		for _, r := range ddl {
			lsn, err := e.wal.Append(r.typ, []byte(r.payload))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.walCommit(lsn); err != nil {
				t.Fatal(err)
			}
			// The engine that logged the record has its effect too, as
			// the one that wrote it would have.
			e.mu.Lock()
			err = e.redoRecord(r.typ, []byte(r.payload))
			e.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
		}
		tbl, err := e.Table("users")
		if err != nil {
			t.Fatal(err)
		}
		insert(tbl)
		copyDBFiles(t, dir, crash)
		serves(crash)
	})
}
