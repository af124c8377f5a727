package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/client"
	"repro/internal/server"
	"repro/internal/tuple"
)

// serverArgsEnv makes the test binary run main with the arguments it
// holds (newline-separated) instead of the tests: TestServeDrainReopen
// re-execs itself as the real nblb-server.
const serverArgsEnv = "NBLB_SERVER_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(serverArgsEnv); ok {
		os.Args = append(os.Args[:1], strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeDrainReopen runs the binary end to end: 64 concurrent client
// connections each insert one row, the admin listener reports the table
// and the coalesced ops, SIGTERM drains the process, and a second
// process on the same files finds all 64 rows.
func TestServeDrainReopen(t *testing.T) {
	const writers = 64
	db := filepath.Join(t.TempDir(), "kv.db")
	addr, httpAddr := freeAddr(t), freeAddr(t)
	first := startChild(t, "-db", db, "-addr", addr, "-http", httpAddr)
	cl := dial(t, addr)
	if err := cl.CreateTable("kv",
		client.Field{Name: "id", Kind: tuple.KindInt64},
		client.Field{Name: "val", Kind: tuple.KindString}); err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	if err := cl.CreateIndex("kv", "by_id", []string{"id"}, true); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 1; i <= writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wc, err := client.Dial(addr, client.WithPoolSize(1))
			if err != nil {
				errs <- err
				return
			}
			defer wc.Close()
			var b client.Batch
			b.Insert(client.Row{tuple.Int64(int64(i)), tuple.String(fmt.Sprintf("v%d", i))})
			if res, err := wc.Apply("kv", &b); err != nil || res.Applied != 1 {
				errs <- fmt.Errorf("insert %d: applied %d, err %v", i, res.Applied, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := stats(t, httpAddr)
	if len(st.Tables) != 1 || st.Tables[0] != "kv" || st.CoalescedOps != writers {
		t.Fatalf("stats = %+v, want table kv and %d coalesced ops", st, writers)
	}
	first.stop(t)

	addr = freeAddr(t)
	second := startChild(t, "-db", db, "-addr", addr)
	cl = dial(t, addr)
	rows, err := cl.Query("kv", client.WithIndex("by_id"))
	if err != nil {
		t.Fatalf("Query after reopen: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
		if r := rows.Row(); r[0].Int != int64(n) || r[1].Str != fmt.Sprintf("v%d", n) {
			t.Fatalf("row %d after reopen = %v", n, r)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("rows after reopen: %v", err)
	}
	rows.Close()
	cl.Close()
	if n != writers {
		t.Fatalf("%d rows after reopen, want %d", n, writers)
	}
	second.stop(t)
}

// child is one nblb-server process: this test binary re-exec'd with
// serverArgsEnv set.
type child struct {
	cmd  *exec.Cmd
	out  bytes.Buffer // stdout and stderr; read only after exit
	done chan error
	once sync.Once
}

func startChild(t *testing.T, args ...string) *child {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: exec.Command(bin), done: make(chan error, 1)}
	c.cmd.Env = append(os.Environ(), serverArgsEnv+"="+strings.Join(args, "\n"))
	c.cmd.Stdout, c.cmd.Stderr = &c.out, &c.out
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { c.done <- c.cmd.Wait() }()
	t.Cleanup(func() {
		c.once.Do(func() {
			c.cmd.Process.Kill()
			<-c.done
		})
	})
	return c
}

// stop sends SIGTERM and waits for a clean exit.
func (c *child) stop(t *testing.T) {
	t.Helper()
	c.once.Do(func() {
		if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("SIGTERM: %v", err)
		}
		select {
		case err := <-c.done:
			if err != nil {
				t.Fatalf("server exit: %v\n%s", err, c.out.String())
			}
		case <-time.After(60 * time.Second):
			c.cmd.Process.Kill()
			<-c.done
			t.Fatalf("server did not drain within 60s\n%s", c.out.String())
		}
	})
}

// freeAddr returns a loopback address whose port was free a moment ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// dial connects to a starting server, retrying until it listens.
func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		cl, err := client.Dial(addr)
		if err == nil {
			return cl
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stats reads GET /v1/stats, retrying until the admin listener is up.
func stats(t *testing.T, addr string) server.StatsSnapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/v1/stats")
		if err == nil {
			defer resp.Body.Close()
			var st server.StatsSnapshot
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /v1/stats: %s", resp.Status)
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatalf("stats JSON: %v", err)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /v1/stats: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
