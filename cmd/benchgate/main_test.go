package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// good is one summary per tracked sweep; as both baseline and fresh run
// it passes every rule with every rule actually comparing something.
var good = map[string]string{
	"scan": `{"num_cpu":8,"gomaxprocs":8,"rows":10000,"leaf_pages":65,"points":[
		{"mode":"cursor-heap-only","allocs_per_row":1,"leaf_fetches":65,"disk_reads_per_pass":0},
		{"mode":"cursor-cache-first","allocs_per_row":0,"leaf_fetches":65,"disk_reads_per_pass":0},
		{"mode":"cursor-cache-first-reverse","allocs_per_row":0,"leaf_fetches":65,"disk_reads_per_pass":0}],
		"parallel":[
		{"segments":1,"mode":"ordered","allocs_per_row":0,"speedup_vs_serial":1},
		{"segments":2,"mode":"ordered","allocs_per_row":0.03,"speedup_vs_serial":1.5},
		{"segments":4,"mode":"unordered","allocs_per_row":0.03,"speedup_vs_serial":3}]}`,
	"write": `{"num_cpu":8,"gomaxprocs":8,"batch_ops_per_point":20000,"batch_sizes":[16,128],"batch_points":[
		{"goroutines":1,"batch_size":16,"one_row_ops_per_sec":500,"batched_ops_per_sec":1000}],
		"durable_ops_per_point":10000,"durable_batch_size":64,"durable_points":[
		{"goroutines":1,"nondurable_ops_per_sec":1000,"ops_per_fsync":64,"sync_none_ops_per_sec":950},
		{"goroutines":4,"nondurable_ops_per_sec":900,"ops_per_fsync":200,"sync_none_ops_per_sec":700}],
		"txn_ops_per_point":30000,"txn_batch_size":64,"txn_points":[
		{"goroutines":1,"raw_ops_per_sec":1000,"txn_ops_per_sec":500},{"goroutines":2,"raw_ops_per_sec":1000,"txn_ops_per_sec":400}]}`,
	"serve": `{"num_cpu":8,"gomaxprocs":8,"ops_per_conn":100,"batch_ops":1,"value_bytes":32,"coalesced":[
		{"conns":1,"ops_per_sec":1000,"ops_per_fsync":1,"ops_per_cycle":1},{"conns":8,"ops_per_sec":5000,"ops_per_fsync":8,"ops_per_cycle":8}],
		"direct":[
		{"conns":1,"ops_per_sec":800,"ops_per_fsync":1,"ops_per_cycle":0},{"conns":8,"ops_per_sec":3000,"ops_per_fsync":2,"ops_per_cycle":0}]}`,
}

// sides holds the decoded summaries of one gate run, by sweep name; a
// nil summary is a file that does not exist.
type sides struct{ base, fresh map[string]point }

// set assigns value at a dotted path ("parallel.3.rows_per_sec") of a
// summary; a nil value deletes the field.
func set(file point, path string, value any) {
	var at any = file
	steps := strings.Split(path, ".")
	for _, step := range steps[:len(steps)-1] {
		if list, ok := at.([]any); ok {
			i, _ := strconv.Atoi(step)
			at = list[i]
		} else {
			at = at.(point)[step]
		}
	}
	if last := steps[len(steps)-1]; value == nil {
		delete(at.(point), last)
	} else {
		at.(point)[last] = value
	}
}

// gateWith runs the gate over the good summaries after edit changed
// them, returning its exit code, its failure lines and all it printed.
func gateWith(t *testing.T, edit func(s sides)) (code int, failures []string, out string) {
	t.Helper()
	s := sides{map[string]point{}, map[string]point{}}
	for name, text := range good {
		for _, side := range []map[string]point{s.base, s.fresh} {
			var p point
			if err := json.Unmarshal([]byte(text), &p); err != nil {
				t.Fatalf("fixture %s: %v", name, err)
			}
			side[name] = p
		}
	}
	if edit != nil {
		edit(s)
	}
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, side := range []map[string]point{s.base, s.fresh} {
		for name, p := range side {
			if p == nil {
				continue
			}
			data, _ := json.Marshal(p)
			if err := os.WriteFile(filepath.Join(dirs[i], "BENCH_"+name+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var buf bytes.Buffer
	code = run([]string{"-base", dirs[0], "-fresh", dirs[1]}, &buf)
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "  regression: ") {
			failures = append(failures, line)
		}
	}
	return code, failures, buf.String()
}

func TestGoodSummariesPassEveryRule(t *testing.T) {
	code, _, out := gateWith(t, nil)
	if code != 0 || !strings.Contains(out, "benchgate: PASS") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	// No note means no rule was skipped: each one compared something.
	if strings.Contains(out, "note:") {
		t.Errorf("a rule was skipped on the good summaries:\n%s", out)
	}
}

// violations breaks each rule, and only that rule, keyed by its why.
var violations = map[string]func(s sides){
	"a serial scan mode allocates more per row (machine-independent, so held tight)": func(s sides) {
		set(s.fresh["scan"], "points.1.allocs_per_row", 0.6)
	},
	"a serial scan mode reads more pages per pass (machine-independent)": func(s sides) {
		set(s.fresh["scan"], "points.1.disk_reads_per_pass", 2.0)
	},
	"reverse and forward scans must fetch the same leaves (doubly linked leaves)": func(s sides) {
		set(s.fresh["scan"], "points.2.leaf_fetches", 66.0)
	},
	"four unordered segments on four CPUs must beat the serial scan outright": func(s sides) {
		set(s.fresh["scan"], "parallel.2.speedup_vs_serial", 1.0)
	},
	"a parallel scan leg allocates more per row (block pooling regressed)": func(s sides) {
		set(s.fresh["scan"], "parallel.1.allocs_per_row", 0.6)
	},
	"batched Apply must never lose to one-row inserts of the same rows (fewer descents, latches, heap-lock acquisitions)": func(s sides) {
		set(s.fresh["write"], "batch_points.0.batched_ops_per_sec", 499.0)
	},
	"group commit fsyncs at most once per Apply, so an fsync covers at least one batch": func(s sides) {
		set(s.fresh["write"], "durable_points.0.ops_per_fsync", 63.0)
	},
	"logging without commit-path fsyncs must stay within 10% of the WAL-off engine's best": func(s sides) {
		set(s.fresh["write"], "durable_points.0.sync_none_ops_per_sec", 850.0)
	},
	"an uncontended transaction must keep a quarter of raw batched throughput (else the commit path picked up accidental work)": func(s sides) {
		set(s.fresh["write"], "txn_points.0.txn_ops_per_sec", 240.0)
	},
	"coalescing must not cost throughput against per-request commits (a lone writer's cycle is a direct Apply)": func(s sides) {
		set(s.fresh["serve"], "coalesced.0.ops_per_sec", 600.0)
	},
	"at the highest connection count the coalescer must share fsyncs better than per-request commits": func(s sides) {
		set(s.fresh["serve"], "coalesced.1.ops_per_fsync", 2.0)
	},
	"at the highest connection count shared batches must form": func(s sides) {
		set(s.fresh["serve"], "coalesced.1.ops_per_cycle", 1.0)
	},
}

func TestEachRuleFailsAloneAndNamesItself(t *testing.T) {
	for _, r := range rules {
		violate, ok := violations[r.why]
		if !ok {
			t.Errorf("rule %s %s (%q) has no violating fixture", r.in, r.metric, r.why)
			continue
		}
		code, failures, out := gateWith(t, violate)
		if code != 1 || len(failures) != 1 || !strings.Contains(failures[0], r.why) || !strings.Contains(failures[0], r.in) {
			t.Errorf("rule %q: exit %d, want 1 with exactly its own failure:\n%s", r.why, code, out)
		}
	}
	if len(violations) != len(rules) {
		t.Errorf("%d violating fixtures for %d rules: two rules share a why, or a fixture is stale", len(violations), len(rules))
	}
}

func TestGuards(t *testing.T) {
	cases := []struct {
		name     string
		edit     func(s sides)
		code     int
		failures []string // a substring of each expected failure, in order
		notes    []string // substrings the output must also contain
	}{
		{name: "a metric missing from the fresh file fails",
			edit: func(s sides) { set(s.fresh["write"], "batch_points.0.batched_ops_per_sec", nil) },
			code: 1, failures: []string{"batched_ops_per_sec is missing from the fresh file"}},
		{name: "a series missing from the fresh file fails every rule over it",
			edit: func(s sides) { set(s.fresh["write"], "durable_points", nil) },
			code: 1, failures: []string{"write/durable_points : the fresh file has no such point to read ops_per_fsync", "write/durable_points : the fresh file has no such point to read sync_none"}},
		{name: "a sibling point missing from the fresh file fails",
			edit: func(s sides) { set(s.fresh["serve"], "direct", []any{}) },
			code: 1, failures: []string{"conns=1: ops_per_sec has no direct conns=1", "conns=8: ops_per_sec has no direct conns=8", "ops_per_fsync has no direct conns=8"}},
		{name: "a missing fresh file fails once",
			edit: func(s sides) { s.fresh["serve"] = nil },
			code: 1, failures: []string{"BENCH_serve.json"}},
		{name: "a missing baseline file is a note, and the fresh-only rules still gate",
			edit: func(s sides) {
				s.base["scan"] = nil
				set(s.fresh["scan"], "points.2.leaf_fetches", 66.0)
			},
			code: 1, failures: []string{"reverse and forward scans"}, notes: []string{"no committed", "BENCH_scan.json"}},
		{name: "a missing baseline file alone passes",
			edit: func(s sides) { s.base["scan"] = nil },
			code: 0, notes: []string{"no committed"}},
		{name: "a baseline without the point is a note",
			edit: func(s sides) { set(s.base["scan"], "points", []any{}) },
			code: 0, notes: []string{"mode=cursor-heap-only: allocs_per_row has no baseline"}},
		{name: "a shape mismatch skips that file's baseline rows and still gates the others",
			edit: func(s sides) {
				set(s.fresh["scan"], "rows", 20000.0)
				set(s.fresh["scan"], "points.1.allocs_per_row", 0.6) // not comparable: not a failure
				set(s.fresh["write"], "txn_points.0.txn_ops_per_sec", 240.0)
			},
			code: 1, failures: []string{"an uncontended transaction"}, notes: []string{"scan/points allocs_per_row: baseline has rows 10000, this run 20000"}},
		{name: "a GOMAXPROCS mismatch skips nothing: every baseline row is a count",
			edit: func(s sides) {
				set(s.fresh["scan"], "gomaxprocs", 4.0)
				set(s.fresh["scan"], "points.1.allocs_per_row", 0.6)
			},
			code: 1, failures: []string{"allocates more per row"}},
		{name: "a leg needing more CPUs than the runner has is unverified, not gated",
			edit: func(s sides) {
				set(s.fresh["scan"], "num_cpu", 2.0)
				set(s.fresh["scan"], "parallel.2.speedup_vs_serial", 0.9)
				set(s.fresh["scan"], "parallel.1.allocs_per_row", 0.6) // two segments on two CPUs: still gated
			},
			code: 1, failures: []string{"segments=2 mode=ordered: allocs_per_row"},
			notes: []string{"segments=4 mode=unordered: speedup_vs_serial needs 4 CPUs"}},
		{name: "only the fresh run's CPUs decide: a baseline from a smaller machine exempts nothing",
			edit: func(s sides) {
				set(s.base["scan"], "num_cpu", 1.0)
				set(s.fresh["scan"], "parallel.2.speedup_vs_serial", 1.0)
			},
			code: 1, failures: []string{"four unordered segments"}},
		{name: "the durable ceiling compares sweep bests, not points",
			edit: func(s sides) { set(s.fresh["write"], "durable_points.1.sync_none_ops_per_sec", 100.0) },
			code: 0},
	}
	for _, c := range cases {
		code, failures, out := gateWith(t, c.edit)
		ok := code == c.code && len(failures) == len(c.failures)
		for i := 0; ok && i < len(failures); i++ {
			ok = strings.Contains(failures[i], c.failures[i])
		}
		for _, note := range c.notes {
			ok = ok && strings.Contains(out, note)
		}
		if !ok {
			t.Errorf("%s: exit %d, want %d with failures %q and notes %q:\n%s", c.name, code, c.code, c.failures, c.notes, out)
		}
	}
}

func TestSkipExitsZero(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-base", "/nonexistent", "-fresh", "/nonexistent", "-skip", "accepted tradeoff"}, &buf); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.Contains(buf.String(), "SKIPPED — accepted tradeoff") {
		t.Errorf("the reason is not recorded: %q", buf.String())
	}
}
