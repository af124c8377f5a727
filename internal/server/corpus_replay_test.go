package server_test

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/client"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Corpus replay: every input the fuzzers have ever minimized — hostile
// ApplyReq payloads and raw frame garbage — is driven through a LIVE
// server against tables holding real data, and the store must come out
// the other side intact: committed rows still readable, index
// CheckIntegrity clean, zero pinned buffer frames. The fuzz targets
// prove the decoders don't panic in isolation; this proves the engine
// behind them doesn't corrupt state or leak pins when fed their output.

// readCorpus parses Go fuzz corpus files ("go test fuzz v1" header,
// one []byte("...") line per input argument).
func readCorpus(t *testing.T, dir string) [][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("corpus dir %s: %v", dir, err)
	}
	var inputs [][]byte
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			inner, ok := strings.CutPrefix(line, "[]byte(")
			if !ok {
				continue
			}
			inner = strings.TrimSuffix(inner, ")")
			s, err := strconv.Unquote(inner)
			if err != nil {
				t.Fatalf("%s: bad corpus literal %q: %v", e.Name(), line, err)
			}
			inputs = append(inputs, []byte(s))
		}
	}
	if len(inputs) == 0 {
		t.Fatalf("no corpus inputs under %s", dir)
	}
	return inputs
}

func TestFuzzCorpusReplayIntegrity(t *testing.T) { replayFuzzCorpus(t) }

func replayFuzzCorpus(t *testing.T) {
	f := startServer(t)
	defer f.stop(t)
	cl, err := client.Dial(f.addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()

	// The fuzz seeds address tables "t" and "x"; give them real tables
	// (with data) so corpus payloads reach Table.Apply, not just the
	// name-lookup error path.
	for _, name := range []string{"t", "x"} {
		if err := cl.CreateTable(name, kvFields()...); err != nil {
			t.Fatalf("CreateTable %s: %v", name, err)
		}
		if err := cl.CreateIndex(name, "by_id", []string{"id"}, true); err != nil {
			t.Fatalf("CreateIndex %s: %v", name, err)
		}
		var b client.Batch
		for i := 0; i < 50; i++ {
			b.Insert(kvRow(int64(i), fmt.Sprintf("pre%03d", i)))
		}
		if _, err := cl.Apply(name, &b); err != nil {
			t.Fatalf("seed Apply %s: %v", name, err)
		}
	}

	// Phase 1: every ApplyReq corpus input as the payload of a
	// well-formed TApply frame on one pipelined connection. Each gets a
	// response (usually TErr); the connection must survive all of them.
	applyCorpus := readCorpus(t, filepath.Join("..", "wire", "testdata", "fuzz", "FuzzApplyReqDecode"))
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var frameBuf []byte
	for i, payload := range applyCorpus {
		out := wire.AppendFrame(nil, uint64(i+1), wire.TApply, payload)
		if _, err := conn.Write(out); err != nil {
			t.Fatalf("corpus %d: write: %v", i, err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		fr, buf, err := wire.ReadFrame(br, frameBuf)
		if err != nil {
			t.Fatalf("corpus %d: no response (conn died): %v", i, err)
		}
		frameBuf = buf
		if fr.ReqID != uint64(i+1) {
			t.Fatalf("corpus %d: response for req %d", i, fr.ReqID)
		}
	}

	// Phase 2: raw frame-fuzz corpus bytes straight onto fresh
	// connections — torn headers, bad CRCs, absurd lengths. The server
	// may drop each connection; it must not wedge or corrupt anything.
	frameCorpus := readCorpus(t, filepath.Join("..", "wire", "testdata", "fuzz", "FuzzReadFrame"))
	for i, raw := range frameCorpus {
		c, err := net.Dial("tcp", f.addr)
		if err != nil {
			t.Fatalf("frame corpus %d: dial: %v", i, err)
		}
		c.Write(raw)
		c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		io := make([]byte, 256)
		for {
			if _, err := c.Read(io); err != nil {
				break
			}
		}
		c.Close()
	}

	// The storm is over: the server still serves, committed data is
	// still there, and nothing leaked.
	for _, name := range []string{"t", "x"} {
		row, found, err := cl.Get(name, "by_id", tuple.Int64(42))
		if err != nil || !found {
			t.Fatalf("%s: pre-storm row lost: found=%v err=%v", name, found, err)
		}
		if row[1].Str != "pre042" {
			t.Fatalf("%s: pre-storm row mutated: %v", name, row)
		}
		var b client.Batch
		b.Insert(kvRow(1000, "post"))
		if res, err := cl.Apply(name, &b); err != nil || res.Applied != 1 {
			t.Fatalf("%s: post-storm Apply: applied=%d err=%v", name, res.Applied, err)
		}
		tb, err := f.eng.Table(name)
		if err != nil {
			t.Fatalf("Table %s: %v", name, err)
		}
		ix, err := tb.Index("by_id")
		if err != nil {
			t.Fatalf("Index %s/by_id: %v", name, err)
		}
		if err := ix.Tree().CheckIntegrity(); err != nil {
			t.Fatalf("%s/by_id integrity after corpus replay: %v", name, err)
		}
	}
	if pins := f.eng.Pool().PinnedFrames(); pins != 0 {
		t.Fatalf("%d buffer frames still pinned after corpus replay", pins)
	}
}
