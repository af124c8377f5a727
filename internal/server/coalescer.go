package server

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// applyJob is one connection's contribution to a coalesced batch. The
// leader fills *out and signals done exactly once; jobs (and their
// channels) are recycled by the handler that waited.
type applyJob struct {
	ops  []wire.Op
	out  *wire.ApplyResp
	done chan struct{}
}

var jobPool = sync.Pool{New: func() any { return &applyJob{done: make(chan struct{}, 1)} }}

// coalescer drains many connections' pending ops for one table into
// shared core.Batches. Handlers enqueue jobs; a single leader
// goroutine per table drains the queue — first job blocking, then more
// until MaxOps ops are staged or MaxWait has passed — and executes one
// Table.Apply under one WAL group commit. Per-op results are
// demultiplexed back to each waiting job with ErrIndex/RID attribution
// (core's WithErrorIsolation), so one client's duplicate key never
// fails a neighbor's op.
//
// Lock order: the coalescer owns no locks across Apply — the staging
// queue is a channel, and the leader calls into core like any embedded
// writer. Per ARCHITECTURE.md, anything serializing staged ops must
// sit above commitGate: the leader stages strictly before Apply takes
// commitGate.RLock, never while holding it.
type coalescer struct {
	tb      *core.Table
	queue   chan *applyJob
	maxOps  int
	maxWait time.Duration
	stats   *Stats
	wg      sync.WaitGroup
}

func newCoalescer(tb *core.Table, maxOps int, maxWait time.Duration, stats *Stats) *coalescer {
	c := &coalescer{
		tb:      tb,
		queue:   make(chan *applyJob, 4096),
		maxOps:  maxOps,
		maxWait: maxWait,
		stats:   stats,
	}
	c.wg.Add(1)
	go c.run()
	return c
}

// apply stages ops, waits for the cycle that lands them and leaves
// their attributed result in out. It must not be called after close;
// the server guarantees this by draining all connection handlers
// before closing coalescers.
func (c *coalescer) apply(ops []wire.Op, out *wire.ApplyResp) {
	j := jobPool.Get().(*applyJob)
	j.ops, j.out = ops, out
	c.queue <- j
	<-j.done
	j.ops, j.out = nil, nil
	jobPool.Put(j)
}

// close stops the leader after it drains every staged job.
func (c *coalescer) close() {
	close(c.queue)
	c.wg.Wait()
}

func (c *coalescer) run() {
	defer c.wg.Done()
	var (
		timer *time.Timer
		jobs  []*applyJob // the cycle's jobs and its shared batch are
		batch core.Batch  // leader-owned scratch, reused every cycle
	)
	for first := range c.queue {
		jobs = append(jobs[:0], first)
		n := len(first.ops)
		if n < c.maxOps {
			if timer == nil {
				timer = time.NewTimer(c.maxWait)
			} else {
				timer.Reset(c.maxWait)
			}
		drain:
			for n < c.maxOps {
				select {
				case j, ok := <-c.queue:
					if !ok {
						break drain
					}
					jobs = append(jobs, j)
					n += len(j.ops)
				case <-timer.C:
					break drain
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		c.cycle(jobs, &batch, n)
		clear(jobs)
	}
}

// cycle executes one coalesced cycle: build the shared batch in
// arrival order, apply with per-op isolation, slice results back per
// job.
func (c *coalescer) cycle(jobs []*applyJob, b *core.Batch, n int) {
	b.Reset()
	for _, j := range jobs {
		stageOps(b, j.ops)
	}
	res, err := c.tb.Apply(b, core.WithErrorIsolation(), core.WithResultRIDs())
	c.stats.CoalescedCycles.Add(1)
	c.stats.CoalescedOps.Add(int64(n))
	off := 0
	for _, j := range jobs {
		nj := len(j.ops) // j is its handler's again once done is signalled
		sliceResult(j.out, &res, err, off, nj)
		off += nj
		j.done <- struct{}{}
	}
}

// sliceResult extracts ops [off, off+n) of a batch result into out,
// reusing its slices. A batch-level error (err != nil, or res.Err from
// a non-attributable failure) fails every op that has no more specific
// per-op error.
func sliceResult(out *wire.ApplyResp, res *core.Result, err error, off, n int) {
	out.Applied = 0
	out.RIDs = append(out.RIDs[:0], make([]uint64, n)...)
	out.OpErrs = append(out.OpErrs[:0], make([]string, n)...)
	if err == nil {
		err = res.Err
	}
	for i := 0; i < n; i++ {
		gi := off + i
		if gi < len(res.RIDs) && res.RIDs[gi].Valid() {
			out.RIDs[i] = res.RIDs[gi].Pack()
		}
		switch {
		case gi < len(res.OpErrs) && res.OpErrs[gi] != nil:
			out.OpErrs[i] = res.OpErrs[gi].Error()
		case err != nil && gi >= res.Applied:
			// Without isolation results, Applied is the count of the
			// leading ops that landed before the batch failed.
			out.OpErrs[i] = err.Error()
		default:
			out.Applied++
		}
	}
}
