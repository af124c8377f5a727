package txntest

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// The schedules run with the write pipelines' scratch poisoned
// (core.PoisonScratch): a pre-image or key kept past its trip diverges
// from the oracle instead of reading plausible stale bytes.
func TestMain(m *testing.M) {
	core.PoisonScratch(true)
	os.Exit(m.Run())
}

// schedules returns how many randomized schedules to run. CI's txn job
// raises it via TXN_SCHEDULES (acceptance: 10k with zero divergence);
// the default keeps `go test ./...` quick.
func schedules(def int) int {
	if v := os.Getenv("TXN_SCHEDULES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestSeedCorpus replays the committed seed corpus — schedules that
// once mattered (first seeds, shrinker exercises, high-collision
// shapes) — deterministically on every CI run.
func TestSeedCorpus(t *testing.T) {
	f, err := os.Open("testdata/seeds.txt")
	if err != nil {
		t.Fatalf("open seed corpus: %v", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		seed, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			t.Fatalf("corpus line %q: %v", line, err)
		}
		if d := Run(seed, Config{}); d != nil {
			t.Fatalf("corpus seed %d diverged:\n%v", seed, d)
		}
		// Replay under the storm shape too: seed 550 found a GC
		// prev-chain cycle only this config's key pressure exposed.
		if d := Run(seed, Config{Slots: 6, Keys: 6, Steps: 120, MaxBatch: 6}); d != nil {
			t.Fatalf("corpus seed %d (storm config) diverged:\n%v", seed, d)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read seed corpus: %v", err)
	}
	if n == 0 {
		t.Fatal("seed corpus is empty")
	}
}

// TestRandomSchedules runs the model checker over sequentially-derived
// seeds. Every divergence report includes the shrunk schedule, so a CI
// failure is directly actionable.
func TestRandomSchedules(t *testing.T) {
	n := schedules(300)
	for seed := int64(0); seed < int64(n); seed++ {
		if d := Run(seed, Config{}); d != nil {
			t.Fatalf("schedule diverged:\n%v", d)
		}
	}
}

// TestRandomSchedulesLongStorms mixes in a few larger shapes — more
// steps, tighter key space — that stress GC and chain depth harder than
// the default config.
func TestRandomSchedulesLongStorms(t *testing.T) {
	n := schedules(300) / 10
	if n < 10 {
		n = 10
	}
	cfg := Config{Slots: 6, Keys: 6, Steps: 120, MaxBatch: 6}
	for seed := int64(0); seed < int64(n); seed++ {
		if d := Run(seed, cfg); d != nil {
			t.Fatalf("long-storm schedule diverged:\n%v", d)
		}
	}
}

// TestHarnessDetectsInvertedVisibility is the teeth test: sabotage the
// engine's snapshot visibility rule (born <= snap becomes born > snap)
// and require the harness to catch it. A harness that stays green
// against a broken engine proves nothing.
func TestHarnessDetectsInvertedVisibility(t *testing.T) {
	core.TestingSetInvertVisibility(true)
	defer core.TestingSetInvertVisibility(false)
	for seed := int64(0); seed < 50; seed++ {
		if d := Run(seed, Config{}); d != nil {
			t.Logf("harness caught the sabotage (seed %d, step %d): %s", d.Seed, d.Step, d.Detail)
			if len(d.Schedule) == 0 {
				t.Fatal("divergence reported with an empty schedule")
			}
			return
		}
	}
	t.Fatal("harness failed to detect inverted snapshot visibility in 50 schedules")
}

// TestShrinkerMinimizes checks the failing-schedule shrinker: the
// reported reproduction must be no longer than the generated schedule
// and must still fail when re-executed.
func TestShrinkerMinimizes(t *testing.T) {
	core.TestingSetInvertVisibility(true)
	defer core.TestingSetInvertVisibility(false)
	for seed := int64(0); seed < 50; seed++ {
		d := Run(seed, Config{})
		if d == nil {
			continue
		}
		full := Generate(seed, Config{})
		if len(d.Schedule) > len(full) {
			t.Fatalf("shrunk schedule longer than original: %d > %d", len(d.Schedule), len(full))
		}
		if again := execute(seed, d.Schedule); again == nil {
			t.Fatalf("shrunk schedule no longer fails:\n%s", FormatSchedule(d.Schedule))
		}
		// A minimal schedule should be meaningfully smaller than a full
		// 40-step one for a visibility bug (a begin, a stage, a commit,
		// and a read suffice). Allow slack but reject no-op shrinking.
		if len(d.Schedule) > len(full)/2 {
			t.Fatalf("shrinker removed too little: %d of %d steps remain:\n%s",
				len(d.Schedule), len(full), FormatSchedule(d.Schedule))
		}
		t.Logf("seed %d shrank %d -> %d steps", seed, len(full), len(d.Schedule))
		return
	}
	t.Fatal("no failing schedule found to shrink")
}

// TestGenerateDeterministic pins schedule derivation: same seed, same
// schedule — the property the committed corpus depends on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := fmt.Sprint(Generate(seed, Config{}))
		b := fmt.Sprint(Generate(seed, Config{}))
		if a != b {
			t.Fatalf("seed %d generated two different schedules", seed)
		}
	}
}
