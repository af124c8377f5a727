// Command benchgate is the CI benchmark regression gate: it checks the
// BENCH_*.json summaries of a fresh `nblb-bench -out` run against the
// committed baselines and against themselves, one row of the rules
// table per check, and exits 1 if any row fails.
//
//	benchgate -base . -fresh bench-out
//	benchgate -base . -fresh bench-out -skip "rewrite trades scan speed for write scaling"
//
// -skip records the reason for an intentional tradeoff and exits 0; CI
// wires it to the bench-skip PR label. docs/benchmarks.md explains the
// guards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
)

// keep is the share of its paired side's throughput a fresh point must
// hold: the sweeps are short, and the two sides of a pair measured in one
// run on a shared runner differ by up to a fifth even on the same code.
const keep = 0.80

// point is one decoded JSON object: a whole summary, or one element of
// one of its series.
type point = map[string]any

// series lists the gated series as "file/series": the fields that key a
// point in it, and, for a series with baseline rows, the top-level
// fields describing its workload, which must be equal before a baseline
// row compares two files — a changed workload is a baseline refresh, not
// a regression.
var series = map[string]struct{ key, shape string }{
	"scan/points":          {"mode", "rows"},
	"scan/parallel":        {"segments mode", "rows"},
	"write/batch_points":   {"goroutines batch_size", ""},
	"write/durable_points": {"goroutines", ""},
	"write/txn_points":     {"goroutines", ""},
	"serve/coalesced":      {"conns", ""},
}

// What a rule holds its metric against.
const (
	constant = iota // nothing: the rule's slack alone is the limit
	baseline        // the same point's metric in the committed file
	field           // field `ref` of the same point
	top             // top-level field `ref` of the fresh file
	sibling         // the same metric in series `ref` of the fresh file, at the same key label or at `refAt`
)

// A rule is one check: metric op factor × reference + slack. Every
// series is judged on its own, and a rule whose metric or point is
// absent from the fresh file fails.
type rule struct {
	in, metric    string // "file/series" and the gated field of each of its points
	at            string // gate only the point with this key label, or the "last" of the series ("" = every point)
	best          bool   // gate the sweep's best instead: one point holding each field's maximum over the series
	vs            int
	ref, refAt    string
	op            string // "≥", ">", "≤" or "="
	factor, slack float64
	cpus          string // key field counting the workers a point needs: with fewer usable CPUs it is unverified, not gated
	why           string // what a failure means; printed with it
}

// rules holds only what repeats: counts held against the committed
// baseline, and ratios between two paths measured in the same run.
var rules = []rule{
	{in: "scan/points", metric: "allocs_per_row", vs: baseline, op: "≤", factor: 1, slack: 0.5, why: "a serial scan mode allocates more per row (machine-independent, so held tight)"},
	{in: "scan/points", metric: "disk_reads_per_pass", vs: baseline, op: "≤", factor: 2 - keep, slack: 1, why: "a serial scan mode reads more pages per pass (machine-independent)"},
	{in: "scan/points", metric: "leaf_fetches", at: "mode=cursor-cache-first-reverse", vs: sibling, ref: "points", refAt: "mode=cursor-cache-first", op: "=", factor: 1, why: "reverse and forward scans must fetch the same leaves (doubly linked leaves)"},
	{in: "scan/parallel", metric: "speedup_vs_serial", at: "segments=4 mode=unordered", op: ">", slack: 1, cpus: "segments", why: "four unordered segments on four CPUs must beat the serial scan outright"},
	{in: "scan/parallel", metric: "allocs_per_row", vs: baseline, op: "≤", factor: 1, slack: 0.5, why: "a parallel scan leg allocates more per row (block pooling regressed)"},
	{in: "write/batch_points", metric: "batched_ops_per_sec", vs: field, ref: "one_row_ops_per_sec", op: "≥", factor: 1, why: "batched Apply must never lose to one-row inserts of the same rows (fewer descents, latches, heap-lock acquisitions)"},
	{in: "write/durable_points", metric: "ops_per_fsync", vs: top, ref: "durable_batch_size", op: "≥", factor: 1, why: "group commit fsyncs at most once per Apply, so an fsync covers at least one batch"},
	{in: "write/durable_points", metric: "sync_none_ops_per_sec", best: true, vs: field, ref: "nondurable_ops_per_sec", op: "≥", factor: 0.90, why: "logging without commit-path fsyncs must stay within 10% of the WAL-off engine's best"},
	{in: "write/txn_points", metric: "txn_ops_per_sec", at: "goroutines=1", vs: field, ref: "raw_ops_per_sec", op: "≥", factor: 0.25, why: "an uncontended transaction must keep a quarter of raw batched throughput (else the commit path picked up accidental work)"},
	{in: "serve/coalesced", metric: "ops_per_sec", vs: sibling, ref: "direct", op: "≥", factor: keep, why: "coalescing must not cost throughput against per-request commits (a lone writer's cycle is a direct Apply)"},
	{in: "serve/coalesced", metric: "ops_per_fsync", at: "last", vs: sibling, ref: "direct", op: ">", factor: 1, why: "at the highest connection count the coalescer must share fsyncs better than per-request commits"},
	{in: "serve/coalesced", metric: "ops_per_cycle", at: "last", op: ">", slack: 1, why: "at the highest connection count shared batches must form"},
}

// gate evaluates rules over the summaries of two directories.
type gate struct {
	base, fresh string
	out         io.Writer
	files       map[string]point // by path; nil = missing or unreadable
	failures    []string
}

func (g *gate) notef(format string, args ...any) {
	fmt.Fprintf(g.out, "  note: %s\n", fmt.Sprintf(format, args...))
}

func (g *gate) failf(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

// load decodes dir/BENCH_<file>.json once. A missing baseline is a
// note; a missing fresh summary fails, once.
func (g *gate) load(dir, file string) point {
	path := filepath.Join(dir, "BENCH_"+file+".json")
	if p, seen := g.files[path]; seen {
		return p
	}
	var p point
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &p)
	}
	if os.IsNotExist(err) && dir != g.fresh {
		g.notef("no committed %s — its baseline rows are skipped", path)
	} else if err != nil {
		p = nil
		g.failf("%s: %v — every tracked sweep must run, and parse, on every PR", path, err)
	}
	g.files[path] = p
	return p
}

func num(p point, field string) (float64, bool) {
	v, ok := p[field].(float64)
	return v, ok
}

func points(file point, name string) (pts []point) {
	list, _ := file[name].([]any)
	for _, e := range list {
		p, _ := e.(point)
		pts = append(pts, p)
	}
	return pts
}

// label renders a point's key, e.g. "segments=4 mode=unordered".
func label(p point, key string) string {
	parts := strings.Fields(key)
	for i, k := range parts {
		parts[i] = fmt.Sprintf("%s=%v", k, p[k])
	}
	return strings.Join(parts, " ")
}

func find(pts []point, key, at string) point {
	for _, p := range pts {
		if label(p, key) == at {
			return p
		}
	}
	return nil
}

// usableCPUs is how many workers the run that wrote file could run at once.
func usableCPUs(file point) float64 {
	n, _ := num(file, "num_cpu")
	procs, _ := num(file, "gomaxprocs")
	return min(n, procs)
}

func (g *gate) check(r rule) {
	file, name, _ := strings.Cut(r.in, "/")
	s := series[r.in]
	fresh := g.load(g.fresh, file)
	if fresh == nil {
		return
	}
	var base point
	if r.vs == baseline {
		base = g.load(g.base, file)
	}
	for _, f := range strings.Fields(s.shape) { // what must match before a baseline row compares
		if base != nil && !reflect.DeepEqual(base[f], fresh[f]) {
			g.notef("%s %s: baseline has %s %v, this run %v — comparison skipped; a changed workload is a baseline refresh", r.in, r.metric, f, base[f], fresh[f])
			base = nil
		}
	}
	pts := points(fresh, name)
	if r.best && len(pts) > 0 {
		peak := point{}
		for _, p := range pts {
			for k := range p {
				if v, ok := num(p, k); ok {
					old, _ := num(peak, k)
					peak[k] = max(v, old)
				}
			}
		}
		pts = []point{peak}
	}
	gated := 0
	for i, p := range pts {
		at := label(p, s.key)
		if r.best {
			at = "sweep best"
		} else if r.at == "last" && i < len(pts)-1 || r.at != "" && r.at != "last" && r.at != at {
			continue
		}
		gated++
		what := fmt.Sprintf("%s %s: %s", r.in, at, r.metric)
		v, ok := num(p, r.metric)
		if !ok {
			g.failf("%s is missing from the fresh file — %s", what, r.why)
			continue
		}
		if r.vs == baseline && base == nil {
			continue
		}
		if need, _ := num(p, r.cpus); need > usableCPUs(fresh) {
			g.notef("%s needs %v CPUs, more than this run had — unverified, not gated", what, need)
			continue
		}
		want, refName := 0.0, r.ref
		switch r.vs {
		case baseline:
			refName = "baseline"
			want, ok = num(find(points(base, name), s.key, at), r.metric)
		case field:
			want, ok = num(p, r.ref)
		case top:
			want, ok = num(fresh, r.ref)
		case sibling:
			if r.refAt != "" {
				at = r.refAt
			}
			refName += " " + at
			want, ok = num(find(points(fresh, r.ref), s.key, at), r.metric)
		}
		if !ok && r.vs == baseline {
			g.notef("%s has no baseline — skipped", what)
			continue
		} else if !ok {
			g.failf("%s has no %s in the fresh file to be held against — %s", what, refName, r.why)
			continue
		}
		limit := r.factor*want + r.slack
		claim := fmt.Sprintf("%s %.6g", r.op, limit)
		if r.vs != constant {
			claim += fmt.Sprintf(" (%.2f × %s %.6g + %g)", r.factor, refName, want, r.slack)
		}
		if map[string]bool{"≥": v >= limit, ">": v > limit, "≤": v <= limit, "=": v == limit}[r.op] {
			fmt.Fprintf(g.out, "  ok: %s = %.6g %s\n", what, v, claim)
		} else {
			g.failf("%s = %.6g, need %s — %s", what, v, claim, r.why)
		}
	}
	if gated == 0 {
		g.failf("%s %s: the fresh file has no such point to read %s from — %s", r.in, r.at, r.metric, r.why)
	}
}

func run(args []string, out io.Writer) int {
	flags := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	base := flags.String("base", ".", "directory holding the committed BENCH_*.json baselines")
	fresh := flags.String("fresh", ".", "directory holding the freshly generated BENCH_*.json")
	skip := flags.String("skip", "", "skip the gate, recording this one-line reason (intentional tradeoff)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *skip != "" {
		fmt.Fprintf(out, "benchgate: SKIPPED — %s\n", *skip)
		return 0
	}
	g := &gate{base: *base, fresh: *fresh, out: out, files: map[string]point{}}
	for _, r := range rules {
		g.check(r)
	}
	if len(g.failures) == 0 {
		fmt.Fprintln(out, "benchgate: PASS")
		return 0
	}
	fmt.Fprintln(out, "benchgate: FAIL\n  regression: "+strings.Join(g.failures, "\n  regression: "))
	return 1
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }
