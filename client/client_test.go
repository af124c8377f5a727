package client

import (
	"bufio"
	"errors"
	"net"
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
