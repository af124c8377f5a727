package server

import (
	"errors"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// The coalescer's protocol, tested without timing: a fake land holds
// each cycle open until the test lets it go, so which jobs share which
// cycle is decided by the test's own sequencing, not by a race the
// scheduler happens to lose.

// heldCycle is one cycle stopped inside land: the RIDs of its ops in
// batch order (the tests tag each job with a distinct RID), and the
// channel that lets it land, with the error to land with.
type heldCycle struct {
	rids []uint64
	land chan error
}

// heldCoalescer returns a coalescer whose every cycle announces itself
// on the returned channel and waits there to be landed.
func heldCoalescer(maxOps int) (*coalescer, chan heldCycle) {
	cycles := make(chan heldCycle)
	c := &coalescer{maxOps: maxOps, stats: new(Stats)}
	c.land = func(res *core.Result, b *core.Batch) error {
		h := heldCycle{land: make(chan error)}
		for i := 0; i < b.Len(); i++ {
			h.rids = append(h.rids, b.Op(i).RID.Pack())
		}
		cycles <- h
		err := <-h.land
		*res = core.Result{ErrIndex: -1, Err: err}
		if err == nil {
			res.Applied = b.Len()
		}
		return err
	}
	return c, cycles
}

// job applies a one-op delete of rid on its own goroutine, as a request
// handler would, and returns where its result will be.
func (c *coalescer) job(wg *sync.WaitGroup, rid uint64) *wire.ApplyResp {
	out := new(wire.ApplyResp)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.apply([]wire.Op{{Kind: wire.OpDelete, RID: rid}}, out)
	}()
	return out
}

// park starts jobs first..last one at a time, each only once the one
// before it is parked, so arrival order is the numeric order.
func (c *coalescer) park(t *testing.T, wg *sync.WaitGroup, first, last uint64) []*wire.ApplyResp {
	t.Helper()
	c.mu.Lock()
	base := len(c.parked)
	c.mu.Unlock()
	var outs []*wire.ApplyResp
	for rid := first; rid <= last; rid++ {
		outs = append(outs, c.job(wg, rid))
		want := base + len(outs)
		for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
			c.mu.Lock()
			n := len(c.parked)
			c.mu.Unlock()
			if n == want {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %d never parked (%d parked, want %d)", rid, n, want)
			}
		}
	}
	return outs
}

func nextCycle(t *testing.T, cycles chan heldCycle) heldCycle {
	t.Helper()
	select {
	case h := <-cycles:
		return h
	case <-time.After(10 * time.Second):
		t.Fatal("no cycle started: the baton was dropped")
		panic("unreachable")
	}
}

func (c *coalescer) checkIdle(t *testing.T, cycles, ops int64) {
	t.Helper()
	c.mu.Lock()
	busy, parked := c.busy, len(c.parked)
	c.mu.Unlock()
	if busy || parked != 0 {
		t.Errorf("coalescer not idle after the last cycle: busy=%v parked=%d", busy, parked)
	}
	if got := c.stats.CoalescedCycles.Load(); got != cycles {
		t.Errorf("CoalescedCycles = %d, want %d", got, cycles)
	}
	if got := c.stats.CoalescedOps.Load(); got != ops {
		t.Errorf("CoalescedOps = %d, want %d", got, ops)
	}
}

func seq(first, last uint64) []uint64 {
	var s []uint64
	for v := first; v <= last; v++ {
		s = append(s, v)
	}
	return s
}

// A lone job is one cycle of one op, applied on the goroutine that
// brought it: no hand-off, so nothing for a timer to bound. (That the
// write path arms none is structural — coalescer.go does not import
// time.)
func TestCoalescerLoneJobLeadsItself(t *testing.T) {
	c := &coalescer{maxOps: maxCycleOps, stats: new(Stats)}
	var stack string
	c.land = func(res *core.Result, b *core.Batch) error {
		buf := make([]byte, 4<<10)
		stack = string(buf[:runtime.Stack(buf, false)])
		*res = core.Result{ErrIndex: -1, Applied: b.Len()}
		return nil
	}
	var out wire.ApplyResp
	c.apply([]wire.Op{{Kind: wire.OpDelete, RID: 1}}, &out)
	if !strings.Contains(stack, "TestCoalescerLoneJobLeadsItself") {
		t.Errorf("the lone job's cycle ran on another goroutine:\n%s", stack)
	}
	if out.Applied != 1 || out.OpErrs != nil || out.Err(0) != nil {
		t.Errorf("result = %+v, want one applied op and no error list", out)
	}
	c.checkIdle(t, 1, 1)
}

// Jobs that arrive while a cycle is in flight form the next cycle, in
// arrival order, and more than maxOps of them split FIFO.
func TestCoalescerParkedJobsShareNextCycle(t *testing.T) {
	for _, tc := range []struct {
		name       string
		k, maxOps  uint64
		wantCycles [][]uint64 // after the first
	}{
		{"one following cycle", 5, maxCycleOps, [][]uint64{seq(1, 5)}},
		{"split at MaxOps", 10, 4, [][]uint64{seq(1, 4), seq(5, 8), seq(9, 10)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, cycles := heldCoalescer(int(tc.maxOps))
			var wg sync.WaitGroup
			outs := []*wire.ApplyResp{c.job(&wg, 0)}
			first := nextCycle(t, cycles)
			outs = append(outs, c.park(t, &wg, 1, tc.k)...)
			first.land <- nil
			if !slices.Equal(first.rids, []uint64{0}) {
				t.Errorf("first cycle = %v, want [0]", first.rids)
			}
			for i, want := range tc.wantCycles {
				h := nextCycle(t, cycles)
				if !slices.Equal(h.rids, want) {
					t.Errorf("cycle %d = %v, want %v", i+2, h.rids, want)
				}
				h.land <- nil
			}
			wg.Wait()
			for i, out := range outs {
				if out.Applied != 1 {
					t.Errorf("job %d: result %+v, want one applied op", i, *out)
				}
			}
			c.checkIdle(t, int64(1+len(tc.wantCycles)), int64(1+tc.k))
		})
	}
}

// A batch-level failure reaches every job of its cycle and nobody
// else, and the failed leader still passes the baton: the jobs parked
// behind it run. (A panic in Apply is not caught anywhere — request
// handlers do not recover, so it ends the process, not a cycle.)
func TestCoalescerFailedCycleReleasesBaton(t *testing.T) {
	c, cycles := heldCoalescer(maxCycleOps)
	var wg sync.WaitGroup
	lone := c.job(&wg, 0)
	first := nextCycle(t, cycles)
	doomed := c.park(t, &wg, 1, 3)
	first.land <- nil
	second := nextCycle(t, cycles)
	late := c.park(t, &wg, 4, 5)
	second.land <- errors.New("boom")
	third := nextCycle(t, cycles)
	if !slices.Equal(third.rids, seq(4, 5)) {
		t.Errorf("cycle after the failed one = %v, want [4 5]", third.rids)
	}
	third.land <- nil
	wg.Wait()
	for i, out := range doomed {
		if out.Applied != 0 || len(out.OpErrs) != 1 || out.OpErrs[0] != "boom" {
			t.Errorf("job %d of the failed cycle: result %+v, want the batch error", i+1, *out)
		}
	}
	for _, out := range append(late, lone) {
		if out.Applied != 1 || out.Err(0) != nil {
			t.Errorf("job outside the failed cycle: result %+v, want one applied op", *out)
		}
	}
	c.checkIdle(t, 3, 6)
}

// 64 writers of one-op batches against a real durable engine: every
// job completes, every op is counted through a cycle and lands, and
// no frame stays pinned. Meant for -race.
func TestCoalescerStorm(t *testing.T) {
	eng, err := core.NewEngine(core.Options{Path: filepath.Join(t.TempDir(), "db")}, core.WithWAL())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	schema := tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "val", Kind: tuple.KindString})
	tb, err := eng.CreateTable("kv", schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.CreateIndex("by_id", []string{"id"}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 64, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out wire.ApplyResp
			ops := make([]wire.Op, 1)
			for i := 0; i < perWriter; i++ {
				ops[0] = wire.Op{Kind: wire.OpInsert, Row: tuple.Row{tuple.Int64(int64(w*perWriter + i)), tuple.String("v")}}
				if err := s.applyOps("kv", ops, &out); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if out.Applied != 1 {
					t.Errorf("writer %d op %d: %+v", w, i, out)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	const total = writers * perWriter
	st := s.Stats()
	if st.CoalescedOps != total {
		t.Errorf("CoalescedOps = %d, want %d", st.CoalescedOps, total)
	}
	if st.CoalescedCycles >= total {
		t.Errorf("no sharing: %d cycles for %d ops", st.CoalescedCycles, total)
	}
	if got := tb.Rows(); got != total {
		t.Errorf("table holds %d rows, want %d", got, total)
	}
	if pins := eng.Pool().PinnedFrames(); pins != 0 {
		t.Errorf("%d frames still pinned", pins)
	}
	t.Logf("%d ops in %d cycles (%.1f ops/cycle)", st.CoalescedOps, st.CoalescedCycles,
		float64(st.CoalescedOps)/float64(st.CoalescedCycles))
}
