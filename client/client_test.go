package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// stallServer is a one-connection wire server for tests: it answers
// every Get with the row {key}, after delay(key). Answers go out in
// the order their delays expire, not the order of the requests.
func stallServer(t *testing.T, delay func(key int64) time.Duration) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		var (
			wmu sync.Mutex
			wg  sync.WaitGroup
			buf []byte
		)
		defer wg.Wait()
		br := bufio.NewReader(nc)
		for {
			f, b, err := wire.ReadFrame(br, buf)
			if buf = b; err != nil {
				return
			}
			var m wire.GetReq
			if err := m.Unmarshal(f.Payload); err != nil || len(m.Key) != 1 {
				return
			}
			id, key := f.ReqID, m.Key[0]
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(delay(key.Int))
				resp := wire.GetResp{Found: true, RID: 1, Row: Row{key}}
				out := resp.Marshal(wire.BeginFrame(nil))
				wire.FinishFrame(out, 0, id, wire.TGetResp)
				wmu.Lock()
				nc.Write(out)
				wmu.Unlock()
			}()
		}
	}()
	return l.Addr().String()
}

// TestLateResponseAfterTimeoutNotMisdelivered: waiters are recycled, so
// the answer to a request that has timed out can reach the connection
// while the next request already waits on the same channel. The server
// stalls every even key to just around the client's 10 ms timeout — so
// that the late answer races the time-out, the release and the next
// registration from run to run — and answers odd keys at once. Whatever
// the interleaving, a Get returns its own key's row or an error, never
// its predecessor's answer.
func TestLateResponseAfterTimeoutNotMisdelivered(t *testing.T) {
	const timeout = 10 * time.Millisecond
	addr := stallServer(t, func(key int64) time.Duration {
		if key%2 != 0 {
			return 0
		}
		return timeout + time.Duration(key%7-3)*200*time.Microsecond // 9.4 .. 10.6 ms
	})
	cl, err := Dial(addr, WithPoolSize(1), WithTimeout(timeout), WithReadRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	get := func(key int64) (timedOut bool) {
		row, found, err := cl.Get("t", "i", Int64(key))
		if errors.Is(err, ErrTimeout) {
			return true
		}
		if err != nil || !found || len(row) != 1 {
			t.Fatalf("Get %d: row=%v found=%v err=%v", key, row, found, err)
		}
		if row[0].Int != key {
			t.Fatalf("Get %d was handed the answer to Get %d", key, row[0].Int)
		}
		return false
	}
	late, answered := 0, 0
	for key := int64(0); key < 120; key += 2 {
		if get(key) {
			late++
		}
		if !get(key + 1) {
			answered++
		}
	}
	// The scenario must actually have happened: stalled requests timed
	// out, and requests right behind them were answered.
	if late == 0 || answered == 0 {
		t.Fatalf("%d stalled Gets timed out, %d prompt Gets were answered: the race was never set up", late, answered)
	}
}

// pageServer is a one-connection wire server for tests: it answers every
// Query with pages, each a TQueryPage frame, the last one flagged Last.
func pageServer(t *testing.T, pages [][]Row) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		var buf []byte
		for {
			f, b, err := wire.ReadFrame(br, buf)
			if buf = b; err != nil {
				return
			}
			for i, rows := range pages {
				page := wire.QueryPage{Rows: rows, Last: i == len(pages)-1}
				out := page.Marshal(wire.BeginFrame(nil))
				wire.FinishFrame(out, 0, f.ReqID, wire.TQueryPage)
				if _, err := nc.Write(out); err != nil {
					return
				}
			}
		}
	}()
	return l.Addr().String()
}

// firstPageServer is a one-connection wire server for tests that answers
// every query with page and then stalls, as if the rest were still to
// come.
func firstPageServer(t *testing.T, page []Row) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br := bufio.NewReader(nc)
		var buf []byte
		for {
			f, b, err := wire.ReadFrame(br, buf)
			if buf = b; err != nil {
				return
			}
			out := (&wire.QueryPage{Rows: page}).Marshal(wire.BeginFrame(nil))
			wire.FinishFrame(out, 0, f.ReqID, wire.TQueryPage)
			if _, err := nc.Write(out); err != nil {
				return
			}
		}
	}()
	return l.Addr().String()
}

// TestAbandonedStreamIsNotATimeout: closing an unfinished stream severs
// its connection, so every other request in flight on that connection
// fails at once. It must fail saying so — not with ErrTimeout, which
// made the neighbours of an abandoned stream report a time-out far
// short of the client's timeout.
func TestAbandonedStreamIsNotATimeout(t *testing.T) {
	page := []Row{{Int64(0)}, {Int64(1)}, {Int64(2)}, {Int64(3)}}
	cl, err := Dial(firstPageServer(t, page), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	a, err := cl.Query("t")
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.Query("t")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Next() || !b.Next() {
		t.Fatalf("no first rows: %v, %v", a.Err(), b.Err())
	}
	a.Close()
	n := 1
	for b.Next() {
		n++
	}
	err = b.Err()
	if n != len(page) || err == nil {
		t.Fatalf("B read %d rows, then %v; want its first page, then an error", n, err)
	}
	if errors.Is(err, ErrTimeout) || !errors.Is(err, errAbandoned) {
		t.Fatalf("B's request on the abandoned connection failed with %q, want %q", err, errAbandoned)
	}
}

// TestStreamedStringsOutliveTheirPage: a decoded string is a view of its
// page's private copy of the payload — not of the response buffer, which
// goes back to its pool (poisoned here) the moment the page is decoded,
// and not of the page's row slab, which the next page overwrites. A
// value kept from page 1 reads the same after page 2 and after Close.
func TestStreamedStringsOutliveTheirPage(t *testing.T) {
	wire.PoisonReleased(true)
	t.Cleanup(func() { wire.PoisonReleased(false) })
	pages := make([][]Row, 3)
	for p := range pages {
		for i := 0; i < 4; i++ {
			id := int64(p*4 + i)
			pages[p] = append(pages[p], Row{Int64(id), String(fmt.Sprintf("row-%03d-%s", id, strings.Repeat("x", 40)))})
		}
	}
	cl, err := Dial(pageServer(t, pages), WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rows, err := cl.Query("t")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	kept := rows.Row()[1]
	want := pages[0][0][1].Str
	n := 1
	for ; rows.Next(); n++ {
		if got := rows.Row()[1].Str; got != pages[n/4][n%4][1].Str {
			t.Fatalf("row %d = %q", n, got)
		}
	}
	if err := rows.Err(); err != nil || n != 12 {
		t.Fatalf("stream ended after %d rows: %v", n, err)
	}
	if kept.Str != want {
		t.Fatalf("a string from page 1 after page 3: %q, want %q", kept.Str, want)
	}
	rows.Close()
	if kept.Str != want {
		t.Fatalf("a string from page 1 after Close: %q, want %q", kept.Str, want)
	}
}

// TestDecodedBytesAreCapped: byte values share their page's copy of the
// payload, so each is capped at its own length — an append to one
// reallocates instead of writing over the value behind it.
func TestDecodedBytesAreCapped(t *testing.T) {
	addr := pageServer(t, [][]Row{{{Bytes([]byte("abc")), Bytes([]byte("def"))}}})
	cl, err := Dial(addr, WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rows, err := cl.Query("t")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	a, b := rows.Row()[0].Raw, rows.Row()[1].Raw
	if cap(a) != len(a) || cap(b) != len(b) {
		t.Fatalf("cap/len %d/%d and %d/%d, want cap == len", cap(a), len(a), cap(b), len(b))
	}
	if grown := append(a, "XYZ"...); string(grown) != "abcXYZ" || string(b) != "def" {
		t.Fatalf("append to the first value: %q, and the second reads %q", grown, b)
	}
}
