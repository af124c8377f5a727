package server

import (
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/wire"
)

// applyJob is one request's contribution to a coalesced cycle, and the
// scratch of the cycles its handler leads; that handler recycles it.
type applyJob struct {
	ops []wire.Op
	out *wire.ApplyResp
	// wake parks the handler while another cycle is in flight. It gets
	// exactly one value: false once a leader has left the job's result
	// in *out, true when the job is handed the baton and must lead cycle.
	wake chan bool

	cycle []*applyJob // the jobs of the cycle this job leads, itself first
	batch core.Batch  // their ops, in arrival order
	res   core.Result // and the batch's result; all three reused
}

var jobPool = sync.Pool{New: func() any { return &applyJob{wake: make(chan bool, 1)} }}

// coalescer folds many connections' pending ops for one table into
// shared core.Batches, by natural batching: no leader goroutine, no
// queue to poll, no timer. A handler that finds no cycle in flight
// leads one at once, on its own goroutine — a lone writer's request is
// a direct Table.Apply. Handlers that arrive meanwhile park, and the
// outgoing leader hands the baton to the first of them: the wait for
// the cycle in flight is the only wait there is, and it is what forms
// the next batch. One Table.Apply under one WAL group commit lands a
// cycle; results demultiplex back per job from core's per-op verdicts
// (Result.OpErrs), so one client's duplicate key never fails a
// neighbor's op.
//
// Lock order (ARCHITECTURE.md rule 8): mu is a leaf. It guards the two
// fields below for a few instructions at a time, never across
// Table.Apply, a channel operation or an engine lock, so parking can
// never invert with the commit gate.
type coalescer struct {
	// land applies one cycle's batch (Table.ApplyInto with result RIDs); a
	// field so that tests can hold a cycle open or fail it.
	land   func(*core.Result, *core.Batch) error
	maxOps int
	solo   bool // Config.NoCoalesce: every job is a cycle of its own
	stats  *Stats

	mu     sync.Mutex  // nblb:lock coalescer-mu
	busy   bool        // a cycle is in flight; its leader holds the baton
	parked []*applyJob // arrival order; the next leader first
}

// apply lands ops through a cycle — one it leads or one it joins — and
// leaves their attributed result in out.
func (c *coalescer) apply(ops []wire.Op, out *wire.ApplyResp) {
	j := jobPool.Get().(*applyJob)
	j.ops, j.out = ops, out
	if c.join(j) {
		c.lead(j)
	}
	j.ops, j.out = nil, nil
	jobPool.Put(j)
}

// join reports whether j must lead a cycle: at once when none is in
// flight, otherwise after parking until a leader either lands j's ops
// in its own cycle (false) or passes j the baton. The cycle (j.cycle) is
// whoever is parked when j takes it, not when the baton was passed: j
// first, FIFO up to the job that brings it to maxOps ops. A solo
// coalescer has no baton: every job leads itself.
func (c *coalescer) join(j *applyJob) (lead bool) {
	if c.solo {
		j.cycle = append(j.cycle[:0], j)
		return true
	}
	c.mu.Lock()
	c.parked = append(c.parked, j)
	if c.busy {
		c.mu.Unlock()
		if !<-j.wake {
			return false
		}
		c.mu.Lock()
	}
	c.busy = true
	k := 0
	for n := 0; k < len(c.parked) && n < c.maxOps; k++ {
		n += len(c.parked[k].ops)
	}
	j.cycle = append(j.cycle[:0], c.parked[:k]...)
	rest := copy(c.parked, c.parked[k:])
	clear(c.parked[rest:])
	c.parked = c.parked[:rest]
	c.mu.Unlock()
	return true
}

// pass ends the leader's cycle: the baton goes to the first parked job
// (it takes its cycle in join), or with nobody parked the coalescer idles.
func (c *coalescer) pass() {
	c.mu.Lock()
	c.busy = len(c.parked) > 0
	var next *applyJob
	if c.busy {
		next = c.parked[0]
	}
	c.mu.Unlock()
	if next != nil {
		next.wake <- true
	}
}

// lead runs one cycle on the calling handler's goroutine: build the
// shared batch in arrival order, apply it, pass the baton, slice
// results back per job. The baton leaves before the results do, so the
// next cycle's Apply overlaps this one's replies.
func (c *coalescer) lead(j *applyJob) {
	j.batch.Reset()
	for _, m := range j.cycle {
		stageOps(&j.batch, m.ops)
	}
	err := c.land(&j.res, &j.batch)
	if !c.solo {
		c.stats.CoalescedCycles.Add(1)
		c.stats.CoalescedOps.Add(int64(j.batch.Len()))
		// Let handlers that are already runnable park before the baton
		// moves: on a single P a blocking fsync stalls the whole process (a
		// P is taken back only from a syscall that outlasts sysmon's tick, up
		// to 10 ms), and whoever arrived meanwhile would find the coalescer
		// idle, one fsync each (docs/benchmarks.md, "PR 15"). Free when idle.
		runtime.Gosched()
		c.pass()
	}
	off := 0
	for _, m := range j.cycle {
		n := len(m.ops) // m is its handler's again once woken
		sliceResult(m.out, &j.res, err, off, n)
		off += n
		if m != j {
			m.wake <- false
		}
	}
	clear(j.cycle)
}

// sliceResult extracts ops [off, off+n) of a batch result into out,
// reusing its slices. Op i failed if res.OpErrs holds its error. A
// result with no OpErrs is a raw Apply's whose every op applied, or a
// staged Txn.Apply's, which stages all or nothing: there every op
// failed if err is set. The error list is filled in only once an op
// fails: an answer whose every op applied carries none.
func sliceResult(out *wire.ApplyResp, res *core.Result, err error, off, n int) {
	out.Applied = 0
	out.RIDs = append(out.RIDs[:0], make([]uint64, n)...)
	out.OpErrs = out.OpErrs[:0]
	for i := 0; i < n; i++ {
		gi := off + i
		if gi < len(res.RIDs) && res.RIDs[gi].Valid() {
			out.RIDs[i] = res.RIDs[gi].Pack()
		}
		failed := err
		if len(res.OpErrs) > 0 {
			failed = res.OpErrs[gi]
		}
		if failed == nil {
			out.Applied++
			continue
		}
		if len(out.OpErrs) == 0 {
			out.OpErrs = append(out.OpErrs, make([]string, n)...)
		}
		out.OpErrs[i] = failed.Error()
	}
}
