package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/tuple"
	"repro/internal/wiki"
	"repro/internal/workload"
)

// ThroughputConfig parameterizes the parallel point-lookup throughput
// experiment: one warmed cache-hit workload driven by increasing
// goroutine counts against the sharded buffer pool, so the scaling
// curve of the PR-over-PR perf trajectory is reproducible from the CLI.
type ThroughputConfig struct {
	Rows       int   // table rows
	Lookups    int   // lookups per goroutine count (split across goroutines)
	Goroutines []int // goroutine counts to sweep
	Shards     int   // pool shard count (0 = automatic)
	Seed       int64
}

// DefaultThroughputConfig sweeps 1..8 goroutines over a fully resident
// table.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Rows:       20000,
		Lookups:    200000,
		Goroutines: []int{1, 2, 4, 8},
		Seed:       1,
	}
}

// ThroughputPoint is one goroutine count of the sweep.
type ThroughputPoint struct {
	Goroutines       int     `json:"goroutines"`
	ShardedOpsPerSec float64 `json:"sharded_ops_per_sec"`
}

// ThroughputResult is the measured sweep plus environment facts that
// matter when comparing JSON summaries across machines and PRs.
type ThroughputResult struct {
	Env
	Rows   int               `json:"rows"`
	Shards int               `json:"shards"`
	Points []ThroughputPoint `json:"points"`
}

// RunThroughput measures parallel cache-hit lookup throughput.
func RunThroughput(cfg ThroughputConfig) (_ ThroughputResult, err error) {
	e, ix, err := buildThroughputIndex(cfg)
	if err != nil {
		return ThroughputResult{}, err
	}
	defer closeEngine(e, &err)

	res := ThroughputResult{Env: currentEnv(), Rows: cfg.Rows, Shards: e.Pool().NumShards()}
	keys := make([][]tuple.Value, cfg.Rows)
	for i := range keys {
		keys[i] = fig2cKey(i)
	}
	for _, g := range cfg.Goroutines {
		ops, err := measureParallelLookups(ix, keys, cfg, g)
		if err != nil {
			return ThroughputResult{}, err
		}
		res.Points = append(res.Points, ThroughputPoint{Goroutines: g, ShardedOpsPerSec: ops})
	}
	return res, nil
}

func buildThroughputIndex(cfg ThroughputConfig) (*core.Engine, *core.Index, error) {
	e, err := core.NewEngine(core.Options{PageSize: 8192, BufferPoolPages: 1 << 16, PoolShards: cfg.Shards})
	if err != nil {
		return nil, nil, err
	}
	tb, err := e.CreateTable("page", wiki.PageSchema())
	if err != nil {
		return nil, nil, err
	}
	gen := wiki.NewGenerator(wiki.Config{Pages: cfg.Rows, RevisionsPerPage: 1, Alpha: 0.5, Seed: cfg.Seed})
	for i := 0; i < cfg.Rows; i++ {
		if _, err := tb.Insert(gen.PageRow(i, int64(i*10))); err != nil {
			return nil, nil, err
		}
	}
	ix, err := tb.CreateIndex("name_title", []string{"page_namespace", "page_title"},
		core.WithFillFactor(0.68), core.WithCache(wiki.CachedPageFields()...), core.WithCacheSeed(cfg.Seed))
	if err != nil {
		return nil, nil, err
	}
	if _, err := ix.WarmCache(); err != nil {
		return nil, nil, err
	}
	return e, ix, nil
}

// measureParallelLookups runs cfg.Lookups lookups split across g
// goroutines and returns aggregate lookups/second.
func measureParallelLookups(ix *core.Index, keys [][]tuple.Value, cfg ThroughputConfig, g int) (float64, error) {
	proj := []string{"page_namespace", "page_title", "page_latest", "page_len"}
	perG := cfg.Lookups / g
	elapsed, err := runWorkers(g, func(w int) error {
		rng := workload.NewRand(cfg.Seed + int64(w)*7919)
		buf := make(tuple.Row, 0, len(proj))
		for n := 0; n < perG; n++ {
			row, res, err := ix.LookupInto(buf, proj, keys[rng.Intn(len(keys))]...)
			if err != nil {
				return err
			}
			if !res.Found {
				return fmt.Errorf("experiments: throughput key vanished")
			}
			buf = row
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(perG*g) / elapsed.Seconds(), nil
}

// Print renders the sweep as a table. The last column is each point's
// throughput over the first's — the scaling curve, where this machine
// has the CPUs to show one.
func (r ThroughputResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Parallel cache-hit lookup throughput, %d rows, GOMAXPROCS=%d on %d CPUs, %d pool shards\n",
		r.Rows, r.GOMAXPROCS, r.NumCPU, r.Shards)
	fmt.Fprintf(w, "%12s %18s %22s\n", "goroutines", "sharded ops/s", "vs first point")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%12d %18.0f %22s\n", p.Goroutines, p.ShardedOpsPerSec,
			r.scaling(p.Goroutines, p.ShardedOpsPerSec/r.Points[0].ShardedOpsPerSec))
	}
}
