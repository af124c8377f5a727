// Command benchmark is the repository's served benchmark: it loads a
// file-backed engine, serves it in-process, drives it through the real
// client in a closed loop of two connections, checks every result and
// prints every metric by name and unit. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// environment describes where a report's numbers were taken.
type environment struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Kernel      string `json:"kernel"`
	FSType      string `json:"fs_type"` // of the data directory
	Commit      string `json:"commit"`
	Connections int    `json:"connections"`
}

// report is what -out writes and -compare reads.
type report struct {
	Env     environment `json:"env"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Quick   bool        `json:"quick"`
	Results []*result   `json:"results"`
}

func cstring(b []int8) string {
	var sb strings.Builder
	for _, c := range b {
		if c == 0 {
			break
		}
		sb.WriteByte(byte(c))
	}
	return sb.String()
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs"}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commit reads the checked-out commit from .git without running git;
// the driver's checkout is not a repository and reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(b))
	}
	return h
}

func describeEnv(dataRoot string) environment {
	env := environment{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Kernel:      "unknown",
		FSType:      fsType(dataRoot),
		Commit:      commit(),
		Connections: connections,
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		env.Kernel = cstring(u.Release[:])
	}
	return env
}

func printResult(r *result) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer, traced run"
	}
	fmt.Printf("\n== %s (%s) ==\n", r.Workload, kind)
	for _, name := range sortedNames(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("%-34s %16.4f %s\n", name, m.Value, m.Unit)
	}
	for _, name := range sortedNames(r.Timings) {
		m := r.Timings[name]
		line := fmt.Sprintf("%-34s %16.4f %s   (not gated)", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Println(line)
	}
	fmt.Printf("%-34s %16.6f ratio   (%d failed of %d attempted)\n", "fail_ratio", r.FailRatio, r.Failed, r.Attempted)
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  info %-29s %16.4f\n", k, r.Info[k])
	}
	if r.TraceFile != "" {
		fmt.Printf("  trace written to %s\n", r.TraceFile)
	}
	for _, e := range r.Errors {
		fmt.Printf("  ERROR %s\n", e)
	}
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() error {
	var (
		workloadName = flag.String("workload", "all", "workload `name`, or all")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default 10, 1 with -quick)")
		trace        = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced run; both")
		out          = flag.String("out", "", "write the full report (environment, every result) to this `file`")
		quick        = flag.Bool("quick", false, "smoke-test sizes: 5k rows, 1 s, one set-up")
		repeat       = flag.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, ...")
		tmp          = flag.String("tmp", ".bench_build", "`directory` under which data directories are created and removed")
		compare      = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two report files")
		}
		return compareReports(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}

	cfg := config{seconds: 10, rows: 200_000, tmpRoot: *tmp, traceDir: filepath.Join("benchmark", "out"), setups: 3, replay: 20_000}
	if *quick {
		cfg = config{seconds: 1, rows: 5_000, quick: true, tmpRoot: *tmp, traceDir: cfg.traceDir, setups: 1, replay: 500}
	}
	if *seconds > 0 {
		cfg.seconds = *seconds
	}
	var todo []spec
	if *workloadName == "all" {
		todo = specs
	} else if s, ok := specByName(*workloadName); ok {
		todo = []spec{s}
	} else {
		return fmt.Errorf("unknown workload %q", *workloadName)
	}
	var modes []bool
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace wants 0, 1 or both, got %q", *trace)
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return err
	}
	rep := report{Env: describeEnv(cfg.tmpRoot), Seed: *seed, Seconds: cfg.seconds, Quick: cfg.quick}
	fmt.Printf("env: num_cpu=%d gomaxprocs=%d go=%s kernel=%s fs=%s commit=%s connections=%d seed=%d seconds=%g quick=%v\n",
		rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Kernel, rep.Env.FSType, rep.Env.Commit,
		rep.Env.Connections, *seed, cfg.seconds, cfg.quick)
	for _, s := range todo {
		for i := range *repeat {
			for _, traced := range modes {
				c := cfg
				c.seed = *seed + int64(i)
				r, err := runWorkload(s, c, traced)
				if err != nil {
					return err
				}
				printResult(r)
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if *out != "" {
		b, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}

	// Last line: one run's metrics by name; several runs' medians as
	// <workload>:<metric>.
	line := resultLine{Correct: true, Metrics: map[string]metric{}}
	for _, r := range rep.Results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	if len(rep.Results) == 1 {
		line.Metrics = rep.Results[0].Metrics
	} else {
		for key, vals := range groupMetrics(rep.Results, func(*result) bool { return true }) {
			line.Metrics[key.workload+":"+key.metric] = metric{Value: medianFloat(vals.values), Unit: vals.unit}
		}
	}
	b, err := json.Marshal(&line)
	if err != nil {
		return err
	}
	fmt.Printf("\n%s\n", b)
	if !line.Correct {
		return errors.New("verification failed (see ERROR lines above)")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
