package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/buffer"
	"repro/internal/idxcache"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

// result is one run of one workload: the contract's result line plus
// what a person reading the report wants beside it.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	FailRatio float64           `json:"fail_ratio"`
	Metrics   map[string]metric `json:"metrics"`
	// Timings are the untraced run's wall-clock and CPU figures. No
	// bound gates them (see README.md, Steadiness); -compare sets two
	// reports' side by side all the same.
	Timings map[string]metric `json:"timings,omitempty"`
	// Samples is the sample count behind each latency percentile.
	Samples map[string]int64 `json:"samples,omitempty"`
	// Info carries sizes and breakdowns that are not metrics: page
	// counts, pool size, the set-up split, op counts.
	Info      map[string]float64 `json:"info,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// counters is every layer's public counter state at one instant.
type counters struct {
	srv          server.StatsSnapshot
	pool         buffer.Stats
	cache        idxcache.Stats
	wal          wal.Stats
	reads        int64
	writes       int64
	syncs        int64
	latchRetries int64
	mem          runtime.MemStats
}

func snapshot(in *instance) counters {
	c := counters{
		srv:          in.srv.Stats(),
		pool:         in.eng.Pool().Stats(),
		cache:        in.ix.Cache().Stats(),
		wal:          in.eng.WALStats(),
		latchRetries: in.ix.Tree().LatchRetries(),
	}
	if io := in.eng.IOCounter(); io != nil {
		c.reads, c.writes, c.syncs = io.Reads(), io.Writes(), io.Syncs()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not in /proc/self/status")
}

// fileBytes sums the engine's on-disk files: data, log, double-write
// and manifest.
func fileBytes(in *instance) (total, db int64) {
	for _, suffix := range []string{"", ".wal", ".dw", ".manifest"} {
		if fi, err := os.Stat(in.dbPath() + suffix); err == nil {
			total += fi.Size()
			if suffix == "" {
				db = fi.Size()
			}
		}
	}
	return total, db
}

// runWorkload performs one run: untraced it measures the end-to-end
// metrics, traced the per-layer ones.
func runWorkload(s spec, cfg config, traced bool) (*result, error) {
	res := &result{Workload: s.name, Traced: traced, Samples: map[string]int64{}, Info: map[string]float64{}}
	perm := workload.Shuffle(workload.NewRand(cfg.seed*131+3), cfg.rows)
	streams := make([][]op, connections)
	for conn := range streams {
		streams[conn] = genStream(s, cfg.seed, conn, cfg.rows, perm)
	}

	// Set up several times and report the median: one set-up is a
	// second or two of mostly single-threaded work and a single
	// sample of it jitters more than its bound.
	setups := cfg.setups
	if traced {
		setups = 1
	}
	var in *instance
	var totals []float64
	for i := range setups {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		// Hand the previous set-up's garbage back first, so that
		// peak_rss_mb is one set-up's or the serving phase's peak and
		// not an accident of when the collector last ran.
		debug.FreeOSMemory()
		var times setupTimes
		var err error
		if in, times, err = setUp(s, cfg, streams, traced); err != nil {
			return nil, err
		}
		totals = append(totals, times.total().Seconds())
		if i == setups-1 {
			res.Info["setup_load_s"] = times.load.Seconds()
			res.Info["setup_reopen_s"] = times.reopen.Seconds()
			res.Info["setup_warm_s"] = times.warm.Seconds()
		}
	}
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	res.Info["rows"] = float64(cfg.rows)
	res.Info["pool_pages"] = float64(in.poolPages)
	res.Info["heap_pages_loaded"] = float64(in.heapPages)
	res.Info["index_pages_loaded"] = float64(in.idxPages)

	debug.FreeOSMemory()
	d := time.Duration(cfg.seconds * float64(time.Second))
	var untraced phase
	var recs []*recorder
	if traced {
		// A short tracing-off stretch first, in this same process, is
		// the base of trace.overhead_ratio.
		untraced = runPhase(in.workers, streams, 0, d/5)
		epoch := time.Now()
		for _, w := range in.workers {
			w.rec = newRecorder(epoch, 1<<18)
			recs = append(recs, w.rec)
		}
	}
	before := snapshot(in)
	p := runPhase(in.workers, streams, 0, d)
	after := snapshot(in)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	for _, w := range in.workers {
		w.rec = nil
	}

	res.Attempted, res.Failed = p.attempted+untraced.attempted, p.failed+untraced.failed
	if err := firstError(in.workers); err != nil {
		res.Errors = append(res.Errors, err.Error())
	}
	assert := func(ok bool, format string, args ...any) {
		res.Attempted++
		if !ok {
			res.Failed++
			res.Errors = append(res.Errors, fmt.Sprintf(format, args...))
		}
	}
	dPool := after.pool.Misses - before.pool.Misses
	if !s.writes() {
		assert(after.wal.Appends == before.wal.Appends, "read workload appended %d WAL records", after.wal.Appends-before.wal.Appends)
	}
	if !s.writes() && !s.spill {
		assert(dPool == 0, "pool sized to fit missed %d times after warm-up", dPool)
	}
	if s.spill {
		assert(dPool > 0, "pool smaller than the heap never missed")
	}

	var ms *metricSet
	if !traced {
		ms = newMetricSet(endToEnd)
		ms.set("setup_s", medianFloat(totals))
		ms.set("peak_rss_mb", rss)
		ms.set("allocs_per_op", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), float64(p.completed())))
		primary := primaryKind(s).class()
		res.Samples["op_p50_us"] = int64(len(p.lat[primary]))
		ts := newMetricSet(timings)
		ts.set("ops_per_s", p.opsPerSec())
		ts.set("op_p50_us", p.median(func(s sliceStat) float64 { return s.p50US[primary] }))
		ts.set("cpu_us_per_op", p.cpuUSPerOp())
		res.Timings = ts.values
		res.Info["ops_per_s_whole_phase"] = float64(p.completed()) / p.elapsed.Seconds()
		for c, name := range classNames {
			if n := len(p.lat[c]); n > 0 {
				res.Samples[name+"_p50_us"] = int64(n)
				res.Info[name+"_p50_us"] = percentile(p.lat[c], 50, 1e3)
				res.Info[name+"_p99_us"] = percentile(p.lat[c], 99, 1e3)
			}
		}
	} else {
		ms = newMetricSet(perLayer)
		if err := layerMetrics(ms, res, in, cfg, recs, &p, &untraced, &before, &after, assert); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", s.name, err)
		}
	}

	// Verification, with no traffic running: the live engine against
	// the model, then (write workloads) a recovery from its files.
	var v verdict
	verifyEngine(&v, "after run", in.eng, in.m)
	if s.writes() {
		verifyRecovery(&v, in)
	}
	res.Attempted += v.checks
	res.Failed += v.mismatches
	res.Errors = append(res.Errors, v.errs...)

	// Final checkpoint, then the files' size against the live user
	// bytes.
	start := time.Now()
	if err := in.eng.Checkpoint(); err != nil {
		return nil, err
	}
	ckpt := time.Since(start)
	total, db := fileBytes(in)
	liveRows, liveBytes := in.m.liveStats()
	res.Info["live_rows"] = float64(liveRows)
	res.Info["file_bytes"] = float64(total)
	if traced {
		ms.set("core.checkpoint_ms", float64(ckpt.Microseconds())/1e3)
		ms.set("storage.file_bytes", float64(db))
	} else {
		ms.set("space_amp", ratio(float64(total), float64(liveBytes)))
	}

	if miss := ms.missing(); len(miss) > 0 {
		return nil, fmt.Errorf("%s: metrics never set: %v", s.name, miss)
	}
	res.Metrics = ms.values
	res.FailRatio = ratio(float64(res.Failed), float64(res.Attempted))
	res.Correct = res.Failed == 0
	for k, n := range p.kinds {
		if n > 0 {
			res.Info["ops_"+opNames[k]] = float64(n)
		}
	}
	err = in.close()
	in = nil
	return res, err
}

var opNames = [numOpKinds]string{"get", "covered", "scan", "insert", "update", "update_live", "delete", "txn"}

// primaryKind is the workload's most frequent op kind: the one whose
// client and core spans are set against each other.
func primaryKind(s spec) opKind {
	best := opKind(0)
	for k, share := range s.shares {
		if share > s.shares[best] {
			best = opKind(k)
		}
	}
	return best
}

// layerMetrics fills every per-layer metric of a traced run: counter
// deltas around the traced phase, medians over its client spans, then
// the embedded replay, the micro-probes and the trace file.
func layerMetrics(ms *metricSet, res *result, in *instance, cfg config, recs []*recorder,
	p, untraced *phase, before, after *counters, assert func(ok bool, format string, args ...any)) error {
	ops := float64(p.completed())
	rowsRead := float64(p.kinds[opGet] + p.kinds[opCovered] + scanRows*p.kinds[opScan])

	for c, name := range classNames {
		res.Samples["client."+name+"_p50_us"] = int64(len(p.lat[c]))
		ms.set("client."+name+"_p50_us", percentile(p.lat[c], 50, 1e3))
		ms.set("client."+name+"_p99_us", percentile(p.lat[c], 99, 1e3))
	}
	var frames, wireBytes int64
	for k, n := range p.kinds {
		frames += n * framesPerOp(opKind(k))
		wireBytes += n * int64(wireSize(opKind(k)))
	}
	requests := after.srv.Requests - before.srv.Requests
	ms.set("client.retries", float64(max(requests-frames, 0)))
	ms.set("wire.bytes_per_op", ratio(float64(wireBytes), float64(p.attempted)))
	ms.set("server.requests", float64(requests))
	cycles := after.srv.CoalescedCycles - before.srv.CoalescedCycles
	ms.set("server.coalesce_cycles", float64(cycles))
	ms.set("server.coalesce_ops_per_cycle", ratio(float64(after.srv.CoalescedOps-before.srv.CoalescedOps), float64(cycles)))
	ms.set("core.txn_conflict_ratio", ratio(float64(p.conflicts), float64(p.txns)))

	dc := func(a, b int64) float64 { return float64(a - b) }
	lookups := dc(after.cache.Lookups, before.cache.Lookups)
	ms.set("idxcache.hit_ratio", ratio(dc(after.cache.Hits, before.cache.Hits), lookups))
	ms.set("idxcache.lookups_per_read", ratio(lookups, rowsRead))
	ms.set("idxcache.inserts", dc(after.cache.Inserts, before.cache.Inserts))
	ms.set("idxcache.evictions", dc(after.cache.Evictions, before.cache.Evictions))
	ms.set("idxcache.page_invalidations", dc(after.cache.PageInvalidations, before.cache.PageInvalidations))
	ms.set("idxcache.full_invalidations", dc(after.cache.FullInvalidations, before.cache.FullInvalidations))
	ms.set("idxcache.skipped_no_latch", dc(after.cache.SkippedNoLatch, before.cache.SkippedNoLatch))

	hits, misses := dc(after.pool.Hits, before.pool.Hits), dc(after.pool.Misses, before.pool.Misses)
	ms.set("buffer.hit_ratio", ratio(hits, hits+misses))
	ms.set("buffer.misses_per_op", ratio(misses, ops))
	ms.set("buffer.evictions_per_op", ratio(dc(after.pool.Evictions, before.pool.Evictions), ops))
	ms.set("buffer.writebacks_per_op", ratio(dc(after.pool.Writebacks, before.pool.Writebacks), ops))
	ms.set("btree.latch_retries", dc(after.latchRetries, before.latchRetries))

	ms.set("wal.appends_per_op", ratio(dc(after.wal.Appends, before.wal.Appends), ops))
	ms.set("wal.fsyncs_per_op", ratio(dc(after.wal.Syncs, before.wal.Syncs), ops))
	ms.set("storage.reads_per_op", ratio(dc(after.reads, before.reads), ops))
	ms.set("storage.writes_per_op", ratio(dc(after.writes, before.writes), ops))
	// The engine syncs its data file once per checkpoint and nowhere
	// else, so the sync count is the checkpoint count.
	checkpoints := dc(after.syncs, before.syncs)
	ms.set("storage.syncs", checkpoints)
	ms.set("core.checkpoints", checkpoints)
	if in.spec.name == "write_durable" && !cfg.quick {
		assert(checkpoints >= 5, "write_durable saw %v checkpoints in the traced phase, want at least 5", checkpoints)
	}
	if in.spec.spill {
		assert(after.reads > before.reads, "spill workload read no page from storage")
	}

	ms.set("runtime.allocs_per_op", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops))
	ms.set("runtime.alloc_bytes_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops))
	ms.set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	ms.set("runtime.cpu_us_per_op", p.cpuUSPerOp())
	ms.set("client.ops_per_s", untraced.opsPerSec())
	ms.set("trace.ops_per_s", p.opsPerSec())
	ms.set("trace.overhead_ratio", ratio(p.opsPerSec(), untraced.opsPerSec()))

	// Embedded replay and micro-probes, client traffic stopped.
	sc, err := newScratch(in.dir)
	if err != nil {
		return err
	}
	defer sc.close()
	emb := newRecorder(recs[0].epoch, 8*cfg.replay)
	st, err := replay(in, cfg.replay, cfg.replayBudget(), emb, sc)
	if err != nil {
		return err
	}
	if err := microProbes(ms, in, sc); err != nil {
		return err
	}
	one := []*recorder{emb}
	med := func(rs []*recorder, name string, div float64) float64 {
		return percentile(durations(rs, name), 50, div)
	}
	ms.set("core.lookup_ns", med(one, "core.lookup", 1))
	ms.set("core.lookup_covered_ns", med(one, "core.lookup_covered", 1))
	ms.set("core.lookup_cache_hit_ratio", ratio(float64(st.cacheHits), float64(st.covered)))
	ms.set("core.query_row_ns", ratio(float64(st.queryNs), float64(st.queryRows)))
	ms.set("core.apply_us", med(one, "core.apply", 1e3))
	ms.set("core.txn_commit_us", med(one, "core.txn.commit", 1e3))
	ms.set("wal.bytes_per_user_byte", ratio(float64(st.walBytes), float64(st.walUser)))

	k := primaryKind(in.spec)
	clientUS, coreUS := med(recs, clientSpan[k], 1e3), med(one, coreSpan[k], 1e3)
	wireUS := (2*ms.values["wire.frame_encode_ns"].Value + 2*ms.values["wire.frame_decode_ns"].Value +
		ms.values["wire.row_encode_ns"].Value + ms.values["wire.row_decode_ns"].Value) / 1e3
	ms.set("client.overhead_us", clientUS-coreUS)
	ms.set("server.self_us", clientUS-coreUS-wireUS)
	ms.set("core.self_ns", percentile(selfTimes(emb, coreSpan[k]), 50, 1))

	start := time.Now()
	reclaimed := in.eng.RunGC()
	ms.set("core.gc_pause_us", float64(time.Since(start).Nanoseconds())/1e3)
	ms.set("core.gc_versions_reclaimed", float64(reclaimed))

	ts, err := in.ix.Tree().Stats()
	if err != nil {
		return err
	}
	ms.set("btree.height", float64(ts.Height))
	ms.set("btree.leaf_pages", float64(ts.LeafPages))
	ms.set("btree.mean_leaf_fill", ts.MeanLeafFill)
	ms.set("btree.leaf_free_bytes", float64(ts.LeafFreeBytes))
	hs, err := in.tbl.Heap().Stats()
	if err != nil {
		return err
	}
	ms.set("heap.pages", float64(hs.Pages))
	ms.set("heap.mean_utilization", hs.MeanUtilization)
	ms.set("buffer.pinned_frames_end", float64(in.eng.Pool().PinnedFrames()))

	res.TraceFile, err = writeTrace(cfg.traceDir, in.spec.name, cfg.seed, []string{"conn0", "conn1", "embedded"}, append(recs, emb))
	return err
}

// sortedNames returns the metric names of a result in a stable order.
func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
