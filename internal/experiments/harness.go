package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"
)

// Env is the machine a BENCH_*.json summary was measured on, embedded
// in every result so the gate can leave unverified a leg that needs more
// workers than the run could execute at once. GOMAXPROCS alone can claim
// parallelism an oversubscribed container cannot deliver, hence both.
type Env struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

func currentEnv() Env {
	return Env{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// scaling renders a parallel leg's ratio over its serial reference, or
// says that this machine cannot verify it: a leg with more workers than
// CPUs measures the scheduler, not the design.
func (e Env) scaling(workers int, ratio float64) string {
	if cpus := min(e.NumCPU, e.GOMAXPROCS); workers > cpus {
		return fmt.Sprintf("unverified on %d CPUs", cpus)
	}
	return fmt.Sprintf("%.2fx", ratio)
}

// WriteJSON writes a result as a BENCH_*.json summary, the form in
// which the sweeps are tracked PR-over-PR and read by cmd/benchgate.
func WriteJSON(path string, result any) error {
	data, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkers runs fn(0..g-1) on g goroutines and returns the wall time
// from the first start to the last return, with the workers' errors.
func runWorkers(g int, fn func(w int) error) (time.Duration, error) {
	errs := make([]error, g)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(w)
		}(w)
	}
	wg.Wait()
	return time.Since(start), errors.Join(errs...)
}

// sample is one timed run: its throughput and whatever second number
// the sweep reports from the same run (allocations per row, rows per
// fsync).
type sample struct{ opsPerSec, aux float64 }

// bestOf runs every variant reps times, a GC before each, and keeps each
// variant's fastest sample. One run lasts well under a second, so a GC
// or scheduler hiccup would otherwise show up as a phantom regression;
// noise only ever lowers a throughput sample, so the maximum is what the
// variant demonstrated. The variants alternate within a repetition, so a
// slow stretch of the machine lands on all of them.
func bestOf(reps int, variants ...func() (sample, error)) ([]sample, error) {
	best := make([]sample, len(variants))
	for rep := 0; rep < reps; rep++ {
		for i, run := range variants {
			runtime.GC()
			s, err := run()
			if err != nil {
				return nil, err
			}
			if s.opsPerSec > best[i].opsPerSec {
				best[i] = s
			}
		}
	}
	return best, nil
}
