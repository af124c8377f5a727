package main

import (
	"fmt"
	"slices"
)

// metricDef names one metric. BENCHMARK.json carries the same
// definitions; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the gated metrics. Every one exists, and is never 0, on
// every workload, and every one repeats on a shared 2-vCPU sandbox:
// bytes, allocations and the set-up time. Throughput, latency and CPU
// per op do not (the same binary moves 25-50 % between runs there, see
// README.md, Steadiness), so they are reported as timings and per
// layer, and no bound gates them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"space_amp", "ratio", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
}

// timings are what the untraced run measures of speed: printed, kept
// in the report and compared by -compare, never gated.
var timings = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op_p50_us", Unit: "us", Better: "lower"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
}

// perLayer are the single-layer metrics, <module>.<metric>. A metric
// whose op class a workload does not contain reads 0 there.
var perLayer = []metricDef{
	{Name: "client.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.read_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.scan_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.txn_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.read_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.write_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.scan_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.txn_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.overhead_us", Unit: "us", Better: "lower"},
	{Name: "client.retries", Unit: "count", Better: "lower"},

	{Name: "wire.frame_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.frame_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.row_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.row_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.allocs_per_row", Unit: "count", Better: "lower"},

	{Name: "server.requests", Unit: "count", Better: "higher"},
	{Name: "server.coalesce_cycles", Unit: "count", Better: "lower"},
	{Name: "server.coalesce_ops_per_cycle", Unit: "ratio", Better: "higher"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},

	{Name: "core.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "core.lookup_covered_ns", Unit: "ns", Better: "lower"},
	{Name: "core.lookup_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.query_row_ns", Unit: "ns", Better: "lower"},
	{Name: "core.apply_us", Unit: "us", Better: "lower"},
	{Name: "core.txn_commit_us", Unit: "us", Better: "lower"},
	{Name: "core.txn_conflict_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.checkpoints", Unit: "count", Better: "lower"},
	{Name: "core.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "core.gc_pause_us", Unit: "us", Better: "lower"},
	{Name: "core.gc_versions_reclaimed", Unit: "count", Better: "higher"},
	{Name: "core.self_ns", Unit: "ns", Better: "lower"},

	{Name: "idxcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "idxcache.lookups_per_read", Unit: "ratio", Better: "higher"},
	{Name: "idxcache.inserts", Unit: "count", Better: "higher"},
	{Name: "idxcache.evictions", Unit: "count", Better: "lower"},
	{Name: "idxcache.page_invalidations", Unit: "count", Better: "lower"},
	{Name: "idxcache.full_invalidations", Unit: "count", Better: "lower"},
	{Name: "idxcache.skipped_no_latch", Unit: "count", Better: "lower"},

	{Name: "btree.search_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.cursor_step_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.applyrun_ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "btree.latch_retries", Unit: "count", Better: "lower"},
	{Name: "btree.height", Unit: "count", Better: "lower"},
	{Name: "btree.leaf_pages", Unit: "count", Better: "lower"},
	{Name: "btree.mean_leaf_fill", Unit: "ratio", Better: "higher"},
	{Name: "btree.leaf_free_bytes", Unit: "B", Better: "higher"},

	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "buffer.misses_per_op", Unit: "ratio", Better: "lower"},
	{Name: "buffer.evictions_per_op", Unit: "ratio", Better: "lower"},
	{Name: "buffer.writebacks_per_op", Unit: "ratio", Better: "lower"},
	{Name: "buffer.fetch_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.fetch_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "buffer.pinned_frames_end", Unit: "count", Better: "lower"},

	{Name: "heap.get_ns", Unit: "ns", Better: "lower"},
	{Name: "heap.insertrun_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "heap.update_ns", Unit: "ns", Better: "lower"},
	{Name: "heap.pages", Unit: "count", Better: "lower"},
	{Name: "heap.mean_utilization", Unit: "ratio", Better: "higher"},

	{Name: "wal.appends_per_op", Unit: "ratio", Better: "lower"},
	{Name: "wal.fsyncs_per_op", Unit: "ratio", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.commit_us", Unit: "us", Better: "lower"},

	{Name: "storage.reads_per_op", Unit: "ratio", Better: "lower"},
	{Name: "storage.writes_per_op", Unit: "ratio", Better: "lower"},
	{Name: "storage.syncs", Unit: "count", Better: "lower"},
	{Name: "storage.read_page_us", Unit: "us", Better: "lower"},
	{Name: "storage.write_page_us", Unit: "us", Better: "lower"},
	{Name: "storage.sync_us", Unit: "us", Better: "lower"},
	{Name: "storage.file_bytes", Unit: "B", Better: "lower"},

	{Name: "tuple.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.encode_key_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.decode_field_ns", Unit: "ns", Better: "lower"},
	{Name: "tuple.bytes_per_row", Unit: "B", Better: "lower"},

	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower"},

	{Name: "trace.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// metric is one measured value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a definition list and refuses
// names the list does not have, so a typo cannot ship a phantom
// metric or drop a promised one.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]metric, len(defs))}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.Name == name {
			s.values[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic(fmt.Sprintf("benchmark: metric %q is not defined", name))
}

// missing lists defined metrics that were never set.
func (s *metricSet) missing() []string {
	var out []string
	for _, d := range s.defs {
		if _, ok := s.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// percentile returns the p-th percentile (0..100) of ns durations in
// the given unit divisor (1e3 for us); 0 when there are no samples.
// It sorts xs in place.
func percentile(xs []int64, p float64, div float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(p / 100 * float64(len(xs)-1))
	return float64(xs[i]) / div
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
