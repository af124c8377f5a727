// Command nblb-bench regenerates every figure and in-text analysis of
// "No Bits Left Behind" (CIDR 2011) as text tables.
//
// Usage:
//
//	nblb-bench -exp all            # everything (default)
//	nblb-bench -exp fig2a          # Figure 2(a): hit rate vs cache size
//	nblb-bench -exp fig2b          # Figure 2(b): lookup cost simulation
//	nblb-bench -exp fig2c          # Figure 2(c): measured cache overhead
//	nblb-bench -exp fig3           # Figure 3: clustering / partitioning
//	nblb-bench -exp enc            # §4.1 encoding-waste analysis
//	nblb-bench -exp capacity       # §2.1.4 cache capacity analysis
//	nblb-bench -exp semid          # §4.2 semantic-ID routing
//	nblb-bench -exp vpart          # §3.2 vertical partitioning
//	nblb-bench -exp ablate-place   # A1/A3 placement & bucket ablations
//	nblb-bench -exp ablate-predlog # A2 predicate-log ablation
//	nblb-bench -exp throughput     # parallel lookup scaling, 1-shard vs sharded pool
//	nblb-bench -exp scan           # full-table scan: cache vs heap, serial vs parallel
//	nblb-bench -exp write          # parallel ingest: crabbing vs mutex, sharded vs
//	                               # legacy heap, batched Apply vs one-row inserts
//	nblb-bench -exp serve          # network serving: latency and ops/fsync vs
//	                               # connection count, write coalescing on vs off
//
// -quick shrinks every experiment for a fast smoke run. The throughput,
// scan, write, and serve experiments also write BENCH_throughput.json /
// BENCH_scan.json / BENCH_write.json / BENCH_serve.json summaries (see
// -json / -scanjson / -writejson / -servejson) so the perf trajectory
// is tracked PR-over-PR.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma separated): all, fig2a, fig2b, fig2c, fig3, enc, capacity, semid, vpart, ablate-place, ablate-predlog, throughput, scan, write, serve")
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	seed := flag.Int64("seed", 1, "random seed for all generators")
	jsonPath := flag.String("json", "BENCH_throughput.json", "path for the throughput experiment's JSON summary (empty disables)")
	scanJSONPath := flag.String("scanjson", "BENCH_scan.json", "path for the scan experiment's JSON summary (empty disables)")
	writeJSONPath := flag.String("writejson", "BENCH_write.json", "path for the write experiment's JSON summary (empty disables)")
	serveJSONPath := flag.String("servejson", "BENCH_serve.json", "path for the serve experiment's JSON summary (empty disables)")
	flag.Parse()

	selected := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		selected[strings.TrimSpace(name)] = true
	}
	all := selected["all"]
	want := func(name string) bool { return all || selected[name] }
	ran := 0

	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "nblb-bench: %s: %v\n", name, err)
		os.Exit(1)
	}
	section := func(name string) {
		fmt.Printf("\n================ %s ================\n", name)
	}

	if want("fig2a") {
		ran++
		section("fig2a")
		cfg := experiments.DefaultFig2aConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Items, cfg.Lookups = 2000, 20000
			cfg.Sizes = []int{10, 25, 50, 100}
		}
		res, err := experiments.RunFig2a(cfg)
		if err != nil {
			fail("fig2a", err)
		}
		res.Print(os.Stdout)
		// The paper's trace is more skewed than literal zipf(0.5); show a
		// heavier-skew series where the >90%-at-25% headline is reachable.
		cfg.Alpha = 0.99
		res99, err := experiments.RunFig2a(cfg)
		if err != nil {
			fail("fig2a", err)
		}
		fmt.Println()
		res99.Print(os.Stdout)
	}
	if want("fig2b") {
		ran++
		section("fig2b")
		cfg := experiments.DefaultFig2bConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Lookups = 20000
		}
		experiments.RunFig2b(cfg).Print(os.Stdout)
	}
	if want("fig2c") {
		ran++
		section("fig2c")
		cfg := experiments.DefaultFig2cConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Pages, cfg.Lookups = 4000, 10000
		}
		res, err := experiments.RunFig2c(cfg)
		if err != nil {
			fail("fig2c", err)
		}
		res.Print(os.Stdout)
	}
	if want("fig3") {
		ran++
		section("fig3")
		cfg := experiments.DefaultFig3Config()
		cfg.Seed = *seed
		if *quick {
			cfg.Pages, cfg.Queries = 500, 4000
			cfg.BufferPoolPages = 60
		}
		res, err := experiments.RunFig3(cfg)
		if err != nil {
			fail("fig3", err)
		}
		res.Print(os.Stdout)
	}
	if want("enc") {
		ran++
		section("enc")
		cfg := experiments.DefaultEncWasteConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Rows = 3000
		}
		res, err := experiments.RunEncWaste(cfg)
		if err != nil {
			fail("enc", err)
		}
		res.Print(os.Stdout)
	}
	if want("capacity") {
		ran++
		section("capacity")
		cfg := experiments.DefaultCapacityConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Pages = 4000
		}
		res, err := experiments.RunCapacity(cfg)
		if err != nil {
			fail("capacity", err)
		}
		res.Print(os.Stdout)
	}
	if want("semid") {
		ran++
		section("semid")
		cfg := experiments.DefaultSemIDConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Tuples, cfg.Lookups = 100000, 200000
		}
		res, err := experiments.RunSemID(cfg)
		if err != nil {
			fail("semid", err)
		}
		res.Print(os.Stdout)
	}
	if want("vpart") {
		ran++
		section("vpart")
		cfg := experiments.DefaultVPartConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Rows, cfg.Queries = 2000, 4000
		}
		res, err := experiments.RunVPart(cfg)
		if err != nil {
			fail("vpart", err)
		}
		res.Print(os.Stdout)
	}
	if want("joincache") {
		ran++
		section("joincache")
		cfg := experiments.DefaultJoinCacheConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Pages, cfg.Queries = 300, 6000
		}
		res, err := experiments.RunJoinCache(cfg)
		if err != nil {
			fail("joincache", err)
		}
		res.Print(os.Stdout)
	}
	if want("covering") {
		ran++
		section("covering")
		cfg := experiments.DefaultCoveringConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Pages = 4000
		}
		res, err := experiments.RunCovering(cfg)
		if err != nil {
			fail("covering", err)
		}
		res.Print(os.Stdout)
	}
	if want("ablate-place") {
		ran++
		section("ablate-place")
		cfg := experiments.DefaultAblatePlacementConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Items, cfg.Lookups = 2000, 20000
		}
		res, err := experiments.RunAblatePlacement(cfg)
		if err != nil {
			fail("ablate-place", err)
		}
		res.Print(os.Stdout)
	}
	if want("ablate-predlog") {
		ran++
		section("ablate-predlog")
		cfg := experiments.DefaultAblatePredLogConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Rows, cfg.Ops = 1000, 5000
		}
		res, err := experiments.RunAblatePredLog(cfg)
		if err != nil {
			fail("ablate-predlog", err)
		}
		res.Print(os.Stdout)
	}

	if want("throughput") {
		ran++
		section("throughput")
		cfg := experiments.DefaultThroughputConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Rows, cfg.Lookups = 4000, 40000
			cfg.Goroutines = []int{1, 4, 8}
		}
		res, err := experiments.RunThroughput(cfg)
		if err != nil {
			fail("throughput", err)
		}
		res.Print(os.Stdout)
		if *jsonPath != "" {
			if err := res.WriteJSON(*jsonPath); err != nil {
				fail("throughput", err)
			}
			fmt.Printf("wrote %s\n", *jsonPath)
		}
	}

	if want("scan") {
		ran++
		section("scan")
		cfg := experiments.DefaultScanConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Rows, cfg.Passes = 10000, 2
		}
		res, err := experiments.RunScan(cfg)
		if err != nil {
			fail("scan", err)
		}
		res.Print(os.Stdout)
		if *scanJSONPath != "" {
			if err := res.WriteJSON(*scanJSONPath); err != nil {
				fail("scan", err)
			}
			fmt.Printf("wrote %s\n", *scanJSONPath)
		}
	}

	if want("write") {
		ran++
		section("write")
		cfg := experiments.DefaultWriteConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Preload, cfg.Ops = 5000, 20000
			cfg.HeapOps = 40000
			cfg.BatchOps = 20000
			cfg.DurableOps = 10000
			cfg.Goroutines = []int{1, 2, 4}
		}
		res, err := experiments.RunWrite(cfg)
		if err != nil {
			fail("write", err)
		}
		res.Print(os.Stdout)
		if *writeJSONPath != "" {
			if err := res.WriteJSON(*writeJSONPath); err != nil {
				fail("write", err)
			}
			fmt.Printf("wrote %s\n", *writeJSONPath)
		}
	}

	if want("serve") {
		ran++
		section("serve")
		cfg := experiments.DefaultServeConfig()
		cfg.Seed = *seed
		if *quick {
			cfg.Conns = []int{1, 8}
			cfg.OpsPerConn = 100
		}
		res, err := experiments.RunServe(cfg)
		if err != nil {
			fail("serve", err)
		}
		res.Print(os.Stdout)
		if *serveJSONPath != "" {
			if err := res.WriteJSON(*serveJSONPath); err != nil {
				fail("serve", err)
			}
			fmt.Printf("wrote %s\n", *serveJSONPath)
		}
	}

	if ran == 0 {
		fmt.Fprintf(os.Stderr, "nblb-bench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
