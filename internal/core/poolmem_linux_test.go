package core

import (
	"bytes"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
)

// mappings counts the process's memory mappings.
func mappings(t *testing.T) int {
	t.Helper()
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	return bytes.Count(b, []byte("\n"))
}

// vmSizeKB is the process's mapped address space.
func vmSizeKB(t *testing.T) int64 {
	t.Helper()
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	_, rest, ok := strings.Cut(string(b), "VmSize:")
	if !ok {
		t.Skip("VmSize not in /proc/self/status")
	}
	line, _, _ := strings.Cut(rest, "\n")
	kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(line), " kB"), 10, 64)
	if err != nil {
		t.Fatalf("VmSize:%s: %v", line, err)
	}
	return kb
}

// withoutGC runs the rest of the test with the collector off, so that
// an arena is unmapped by Close or not at all: the cleanup that backs
// Close up must not be what makes these tests pass.
func withoutGC(t *testing.T) {
	t.Helper()
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// Engine.Close gives the pool's arena back then and there: twenty
// generations of one database leave as many mappings as one did.
func TestCloseUnmapsThePool(t *testing.T) {
	withoutGC(t)
	opts := walTestOptions(t.TempDir())
	opts.BufferPoolPages = 1 << 14 // 64 MiB of address space a generation
	generation := func(g int) {
		e, err := NewEngine(opts)
		if err != nil {
			t.Fatal(err)
		}
		var tbl *Table
		if g == 0 {
			if tbl, err = e.CreateTable("users", reopenSchema(t)); err != nil {
				t.Fatal(err)
			}
			if _, err = tbl.CreateIndex("by_id", []string{"id"}); err != nil {
				t.Fatal(err)
			}
		} else if tbl, err = e.Table("users"); err != nil {
			t.Fatal(err)
		}
		var b Batch
		for i := range 200 {
			b.Insert(reopenRow(g*200 + i))
		}
		if _, err := tbl.Apply(&b); err != nil {
			t.Fatal(err)
		}
		if n := tbl.Rows(); n != int64(g+1)*200 {
			t.Fatalf("generation %d: %d rows, want %d", g, n, (g+1)*200)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	generation(0) // whatever the runtime maps once for files, timers and the like
	before, size := mappings(t), vmSizeKB(t)
	for g := 1; g <= 20; g++ {
		generation(g)
	}
	// Leaked arenas next to each other share a line of /proc/self/maps
	// but not address space, so both are held: 20 leaks are 1.25 GiB.
	// The Go heap adds a few mappings of its own with the collector off.
	if after := mappings(t); after > before+8 {
		t.Errorf("mappings grew from %d to %d over 20 open/close generations", before, after)
	}
	if grew := vmSizeKB(t) - size; grew >= 256<<10 {
		t.Errorf("VmSize grew by %d kB over 20 open/close generations", grew)
	}
}

// A NewEngine that fails once the pool exists must not leave its arena
// behind for the collector.
func TestFailedOpenUnmapsThePool(t *testing.T) {
	withoutGC(t)
	opts := walTestOptions(t.TempDir())
	opts.BufferPoolPages = 1 << 15 // 128 MiB of address space: a leak is unmistakable
	if err := os.WriteFile(opts.Path+".manifest", []byte("not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := vmSizeKB(t)
	for range 16 {
		if _, err := NewEngine(opts); err == nil {
			t.Fatal("NewEngine over a corrupt manifest succeeded")
		}
	}
	if grew := vmSizeKB(t) - before; grew >= 128<<10 {
		t.Fatalf("VmSize grew by %d kB over 16 failed opens: the pool's arena outlived the failure", grew)
	}
}
