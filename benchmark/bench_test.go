package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// contract is the shape of ../BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the driver's own tables
// in step: same workloads and reasons, same metrics, units,
// directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(c.Workloads), len(specs))
	}
	for i, s := range specs {
		if c.Workloads[i].Name != s.name || c.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)",
				i, c.Workloads[i].Name, c.Workloads[i].Why, s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", s.name, len(s.why))
		}
	}
	if !reflect.DeepEqual(c.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json   %+v\n driver %+v", c.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(c.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json   %+v\n driver %+v", c.PerLayer, perLayer)
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}

// TestQuickWorkloads runs every workload end to end at smoke-test
// size, untraced and traced, and checks what the issue promises:
// every metric emitted with its unit, nothing failed, the pool-size
// assertions held (they count as failures when they do not), a trace
// file per workload.
func TestQuickWorkloads(t *testing.T) {
	cfg := config{seed: 1, seconds: 0.5, rows: 5_000, quick: true, tmpRoot: t.TempDir(), traceDir: t.TempDir(), setups: 1, replay: 500}
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(s, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.FailRatio != 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", s.name, traced, r.Failed, r.Attempted, r.Errors)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", s.name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: metric %s missing", s.name, d.Name)
				case m.Unit != d.Unit || m.Unit == "":
					t.Errorf("%s: metric %s has unit %q, want %q", s.name, d.Name, m.Unit, d.Unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", s.name, d.Name, m.Value)
				}
			}
			if !traced {
				for _, d := range timings {
					if m, ok := r.Timings[d.Name]; !ok || m.Unit != d.Unit || m.Value <= 0 {
						t.Errorf("%s: timing %s is %+v (present %v), want a positive value in %s", s.name, d.Name, m, ok, d.Unit)
					}
				}
				continue
			}
			if r.Metrics["buffer.pinned_frames_end"].Value != 0 {
				t.Errorf("%s: frames left pinned", s.name)
			}
			if spilled := r.Metrics["buffer.misses_per_op"].Value > 0 && r.Metrics["storage.reads_per_op"].Value > 0; s.spill != spilled && !s.writes() {
				t.Errorf("%s: spill=%v but misses_per_op=%v storage.reads_per_op=%v", s.name, s.spill,
					r.Metrics["buffer.misses_per_op"].Value, r.Metrics["storage.reads_per_op"].Value)
			}
			if appends := r.Metrics["wal.appends_per_op"].Value; s.writes() != (appends > 0) {
				t.Errorf("%s: writes=%v but wal.appends_per_op=%v", s.name, s.writes(), appends)
			}
			b, err := os.ReadFile(r.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(b, &tf); err != nil {
				t.Fatalf("%s: trace file: %v", s.name, err)
			}
			if len(tf.Spans) == 0 || tf.Workload != s.name {
				t.Errorf("%s: trace file holds %d spans for %q", s.name, len(tf.Spans), tf.Workload)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(cfg.tmpRoot, "*")); len(left) != 0 {
		t.Errorf("data directories left behind: %v", left)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got, ok := spread([]float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7})
	if want := (8.25 - 2.75) / 5.5; !ok || got != want {
		t.Errorf("spread = %v, %v; want %v", got, ok, want)
	}
	if _, ok := spread([]float64{1}); ok {
		t.Error("spread of one value reported ok")
	}
}

func TestCompareFlagsBreaches(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, allocs, opsPerSec float64) string {
		rep := report{Results: []*result{{Workload: specs[0].name,
			Metrics: map[string]metric{"allocs_per_op": {Value: allocs, Unit: "count"}},
			Timings: map[string]metric{"ops_per_s": {Value: opsPerSec, Unit: "1/s"}}}}}
		b, err := json.Marshal(&rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, near, far := write("a.json", 40, 60_000), write("b.json", 42, 20_000), write("c.json", 60, 60_000)
	if err := compareReports(base, near); err != nil {
		t.Errorf("5%% more allocations (and an ungated timing three times worse) breached: %v", err)
	}
	if err := compareReports(base, far); err == nil {
		t.Error("50% more allocations passed the bound")
	}
	if err := compareReports(far, base); err != nil {
		t.Errorf("a better second report failed: %v", err)
	}
}
