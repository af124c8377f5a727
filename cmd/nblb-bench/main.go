// Command nblb-bench regenerates every figure and in-text analysis of
// "No Bits Left Behind" (CIDR 2011) as text tables, plus the three
// tracked sweeps (scan, write, serve).
//
// Usage:
//
//	nblb-bench                      # everything
//	nblb-bench -exp fig2c,fig3      # some experiments (-h lists them)
//	nblb-bench -quick               # shrunken workloads for a fast smoke run
//	nblb-bench -exp scan,write,serve -quick -out bench-out
//
// -out names a directory; the tracked sweeps write their
// BENCH_<exp>.json summaries there for cmd/benchgate to compare with
// the committed baselines. Without it nothing is written.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// experimentList is every experiment -exp can name, in the order "all"
// runs them. out is the -out directory ("" = write nothing).
var experimentList = []struct {
	name string
	run  func(quick bool, seed int64, out string) error
}{
	{"fig2a", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultFig2aConfig()
		cfg.Seed = seed
		if quick {
			cfg.Items, cfg.Lookups = 2000, 20000
			cfg.Sizes = []int{10, 25, 50, 100}
		}
		if err := show(experiments.RunFig2a(cfg)); err != nil {
			return err
		}
		// The paper's trace is more skewed than literal zipf(0.5); show a
		// heavier-skew series where the >90%-at-25% headline is reachable.
		cfg.Alpha = 0.99
		fmt.Println()
		return show(experiments.RunFig2a(cfg))
	}},
	{"fig2b", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultFig2bConfig()
		cfg.Seed = seed
		if quick {
			cfg.Lookups = 20000
		}
		return show(experiments.RunFig2b(cfg), nil)
	}},
	{"fig2c", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultFig2cConfig()
		cfg.Seed = seed
		if quick {
			cfg.Pages, cfg.Lookups = 4000, 10000
		}
		return show(experiments.RunFig2c(cfg))
	}},
	{"fig3", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultFig3Config()
		cfg.Seed = seed
		if quick {
			cfg.Pages, cfg.Queries = 500, 4000
			cfg.BufferPoolPages = 60
		}
		return show(experiments.RunFig3(cfg))
	}},
	{"enc", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultEncWasteConfig()
		cfg.Seed = seed
		if quick {
			cfg.Rows = 3000
		}
		return show(experiments.RunEncWaste(cfg))
	}},
	{"capacity", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultCapacityConfig()
		cfg.Seed = seed
		if quick {
			cfg.Pages, cfg.ItemsRows = 4000, 20_000
		}
		return show(experiments.RunCapacity(cfg))
	}},
	{"semid", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultSemIDConfig()
		cfg.Seed = seed
		if quick {
			cfg.Tuples, cfg.Lookups = 100000, 200000
		}
		return show(experiments.RunSemID(cfg))
	}},
	{"vpart", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultVPartConfig()
		cfg.Seed = seed
		if quick {
			cfg.Rows, cfg.Queries = 2000, 4000
		}
		return show(experiments.RunVPart(cfg))
	}},
	{"joincache", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultJoinCacheConfig()
		cfg.Seed = seed
		if quick {
			cfg.Pages, cfg.Queries = 300, 6000
		}
		return show(experiments.RunJoinCache(cfg))
	}},
	{"covering", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultCoveringConfig()
		cfg.Seed = seed
		if quick {
			cfg.Pages = 4000
		}
		return show(experiments.RunCovering(cfg))
	}},
	{"ablate-place", func(quick bool, seed int64, _ string) error {
		cfg := experiments.DefaultAblatePlacementConfig()
		cfg.Seed = seed
		if quick {
			cfg.Items, cfg.Lookups = 2000, 20000
		}
		return show(experiments.RunAblatePlacement(cfg))
	}},
	{"scan", func(quick bool, seed int64, out string) error {
		cfg := experiments.DefaultScanConfig()
		cfg.Seed = seed
		if quick {
			cfg.Rows, cfg.Passes = 10000, 2
		}
		return track("scan", out)(experiments.RunScan(cfg))
	}},
	{"write", func(quick bool, _ int64, out string) error {
		cfg := experiments.DefaultWriteConfig()
		if quick {
			cfg.BatchOps = 20000
			cfg.DurableOps = 10000
			cfg.Goroutines = []int{1, 2, 4}
		}
		return track("write", out)(experiments.RunWrite(cfg))
	}},
	{"serve", func(quick bool, seed int64, out string) error {
		cfg := experiments.DefaultServeConfig()
		cfg.Seed = seed
		if quick {
			cfg.Conns = []int{1, 8}
			cfg.OpsPerConn = 100
		}
		return track("serve", out)(experiments.RunServe(cfg))
	}},
}

type printer interface{ Print(io.Writer) }

// show prints an experiment's result, or passes its error on.
func show(res printer, err error) error {
	if err == nil {
		res.Print(os.Stdout)
	}
	return err
}

// track is show for a tracked sweep: with an -out directory it also
// writes the result there as BENCH_<exp>.json.
func track(exp, out string) func(printer, error) error {
	return func(res printer, err error) error {
		if err = show(res, err); err != nil || out == "" {
			return err
		}
		path := filepath.Join(out, "BENCH_"+exp+".json")
		fmt.Printf("writing %s\n", path)
		return experiments.WriteJSON(path, res)
	}
}

func main() {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiments to run (comma separated): all, "+strings.Join(names, ", "))
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	seed := flag.Int64("seed", 1, "random seed for all generators")
	out := flag.String("out", "", "directory for the tracked sweeps' BENCH_<exp>.json summaries (empty = write nothing)")
	flag.Parse()

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	delete(want, "all")
	for name := range want {
		if !slices.Contains(names, name) {
			fmt.Fprintf(os.Stderr, "nblb-bench: unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "nblb-bench: %v\n", err)
			os.Exit(1)
		}
	}
	for _, e := range experimentList {
		if !all && !want[e.name] {
			continue
		}
		fmt.Printf("\n================ %s ================\n", e.name)
		if err := e.run(*quick, *seed, *out); err != nil {
			fmt.Fprintf(os.Stderr, "nblb-bench: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
}
