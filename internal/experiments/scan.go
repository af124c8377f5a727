package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/tuple"
)

// ScanConfig parameterizes the range-scan experiment: a full-table
// sweep through the unified Query/Cursor API, comparing the heap-only
// cursor and the cache-first cursor whose coverable projection is answered from the §2.1 index cache. Tracked
// PR-over-PR via BENCH_scan.json.
type ScanConfig struct {
	Rows   int
	Passes int // measured passes per mode (after one warmup)
	Seed   int64
}

// DefaultScanConfig scans 50k rows, 5 measured passes.
func DefaultScanConfig() ScanConfig {
	return ScanConfig{Rows: 50000, Passes: 5, Seed: 1}
}

// ScanPoint is one mode of the comparison.
type ScanPoint struct {
	Mode         string  `json:"mode"`
	RowsPerSec   float64 `json:"rows_per_sec"`
	AllocsPerRow float64 `json:"allocs_per_row"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	LeafFetches  int64   `json:"leaf_fetches,omitempty"`
	// DiskReadsPerPass counts page reads that missed the pool, per full
	// scan — the I/O the index cache exists to eliminate. Wall-clock
	// differences understate this on the in-memory disk (a "read" is a
	// memcpy); on real storage each one is a random I/O.
	DiskReadsPerPass float64 `json:"disk_reads_per_pass"`
}

// ParallelScanPoint is one (segments, merge mode) leg of the parallel
// sweep. SpeedupVsSerial is measured against the same-run serial
// cache-first cursor, so it is valid on whatever machine produced the
// file; rows per second are reported, never compared across files.
type ParallelScanPoint struct {
	Segments        int     `json:"segments"`
	Mode            string  `json:"mode"` // "ordered" | "unordered"
	RowsPerSec      float64 `json:"rows_per_sec"`
	AllocsPerRow    float64 `json:"allocs_per_row"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// ScanResult is the measured comparison plus the shape facts that make
// the JSON comparable across PRs.
type ScanResult struct {
	Env
	Rows      int         `json:"rows"`
	LeafPages int         `json:"leaf_pages"`
	Points    []ScanPoint `json:"points"`
	// SerialRowsPerSec is the cache-first cursor's throughput, re-stated
	// here as the denominator of every parallel point's speedup.
	SerialRowsPerSec float64             `json:"serial_rows_per_sec"`
	Parallel         []ParallelScanPoint `json:"parallel"`
}

func scanSchema() *tuple.Schema {
	return tuple.MustSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "a", Kind: tuple.KindInt64},
		tuple.Field{Name: "b", Kind: tuple.KindInt32},
		tuple.Field{Name: "note", Kind: tuple.KindString},
	)
}

// RunScan builds a cached, warmed index and measures full-table scans.
//
// The buffer pool is sized so the index fits but the heap does not —
// the paper's §3.1 regime. Heap reads therefore pay eviction + "disk"
// traffic per page while the cache-resident path stays in the pool,
// which is exactly the trade the index cache exists to win.
func RunScan(cfg ScanConfig) (_ ScanResult, err error) {
	// ~56 B/row heap footprint and ~0.4 fill-factor leaves: the pool
	// budget covers the index plus a sliver of heap.
	poolPages := cfg.Rows/100 + 64
	e, err := core.NewEngine(core.Options{PageSize: 8192, BufferPoolPages: poolPages, CountIO: true})
	if err != nil {
		return ScanResult{}, err
	}
	defer closeEngine(e, &err)
	tb, err := e.CreateTable("s", scanSchema())
	if err != nil {
		return ScanResult{}, err
	}
	for i := 0; i < cfg.Rows; i++ {
		_, err := tb.Insert(tuple.Row{
			tuple.Int64(int64(i)),
			tuple.Int64(int64(i) * 3),
			tuple.Int32(int32(i % 97)),
			tuple.String(fmt.Sprintf("row body %08d", i)),
		})
		if err != nil {
			return ScanResult{}, err
		}
	}
	// The low fill factor leaves enough leaf free space to cache every
	// key's payload, so the cache-first pass runs fully resident. The
	// keys share all but their last bytes with their page's prefix, so a
	// leaf filled to 0.3 holds a few more of them (88) than one filled to
	// 0.4 held whole keys (77), and still has room for every payload.
	ix, err := tb.CreateIndex("by_id", []string{"id"},
		core.WithCache("a", "b"), core.WithFillFactor(0.3), core.WithCacheSeed(cfg.Seed))
	if err != nil {
		return ScanResult{}, err
	}
	if _, err := ix.WarmCache(); err != nil {
		return ScanResult{}, err
	}
	st, err := ix.Tree().Stats()
	if err != nil {
		return ScanResult{}, err
	}
	res := ScanResult{Env: currentEnv(), Rows: cfg.Rows, LeafPages: st.LeafPages}

	proj := []string{"id", "a", "b"}
	type modeFn struct {
		name string
		scan func() (core.QueryStats, error)
	}
	cursorScan := func(opts ...core.QueryOption) func() (core.QueryStats, error) {
		return func() (core.QueryStats, error) {
			cur, err := tb.Query(opts...)
			if err != nil {
				return core.QueryStats{}, err
			}
			for cur.Next() {
			}
			st := cur.Stats()
			if err := cur.Err(); err != nil {
				cur.Close()
				return core.QueryStats{}, err
			}
			if err := cur.Close(); err != nil {
				return core.QueryStats{}, err
			}
			return st, nil
		}
	}
	runs := []modeFn{
		{"cursor-heap-only", cursorScan(core.WithIndex("by_id"),
			core.WithProjection(proj...), core.WithCachePolicy(core.HeapOnly))},
		{"cursor-cache-first", cursorScan(core.WithIndex("by_id"),
			core.WithProjection(proj...))},
		{"cursor-cache-first-reverse", cursorScan(core.WithIndex("by_id"),
			core.WithProjection(proj...), core.WithReverse())},
	}
	for _, m := range runs {
		if _, err := m.scan(); err != nil { // warmup
			return ScanResult{}, err
		}
		e.IOCounter().ResetCounts()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		var last core.QueryStats
		for p := 0; p < cfg.Passes; p++ {
			qs, err := m.scan()
			if err != nil {
				return ScanResult{}, err
			}
			if qs.Rows != int64(cfg.Rows) {
				return ScanResult{}, fmt.Errorf("experiments: %s scanned %d rows, want %d", m.name, qs.Rows, cfg.Rows)
			}
			last = qs
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		total := int64(cfg.Rows) * int64(cfg.Passes)
		pt := ScanPoint{
			Mode:             m.name,
			RowsPerSec:       float64(total) / elapsed.Seconds(),
			AllocsPerRow:     float64(ms1.Mallocs-ms0.Mallocs) / float64(total),
			LeafFetches:      last.LeafFetches,
			DiskReadsPerPass: float64(e.IOCounter().Reads()) / float64(cfg.Passes),
		}
		if last.Rows > 0 {
			pt.CacheHitRate = float64(last.CacheHits) / float64(last.Rows)
		}
		res.Points = append(res.Points, pt)
		if m.name == "cursor-cache-first" {
			res.SerialRowsPerSec = pt.RowsPerSec
		}
	}

	// Parallel sweep: segmented workers over the same warmed cache-first
	// scan, both merge modes. n=1 is the serial path (WithParallel(1)
	// runs no workers); n≥2 legs only express real speedup on multicore
	// runners, so the gate conditions the strict unordered-beats-serial
	// check on the runner's CPUs.
	for _, n := range []int{1, 2, 4} {
		for _, mode := range []core.MergeMode{core.MergeOrdered, core.MergeUnordered} {
			modeName := "ordered"
			if mode == core.MergeUnordered {
				modeName = "unordered"
			}
			scan := cursorScan(core.WithIndex("by_id"), core.WithProjection(proj...),
				core.WithParallel(n), core.WithMergeMode(mode))
			if _, err := scan(); err != nil { // warmup
				return ScanResult{}, err
			}
			// Best-of-3: the gate's four-segment speedup check would
			// otherwise flake on short quick-mode runs.
			total := int64(cfg.Rows) * int64(cfg.Passes)
			best, err := bestOf(3, func() (sample, error) {
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				start := time.Now()
				for p := 0; p < cfg.Passes; p++ {
					qs, err := scan()
					if err != nil {
						return sample{}, err
					}
					if qs.Rows != int64(cfg.Rows) {
						return sample{}, fmt.Errorf("experiments: parallel n=%d %s scanned %d rows, want %d",
							n, modeName, qs.Rows, cfg.Rows)
					}
				}
				elapsed := time.Since(start)
				runtime.ReadMemStats(&ms1)
				return sample{opsPerSec: float64(total) / elapsed.Seconds(),
					aux: float64(ms1.Mallocs-ms0.Mallocs) / float64(total)}, nil
			})
			if err != nil {
				return ScanResult{}, err
			}
			pt := ParallelScanPoint{Segments: n, Mode: modeName,
				RowsPerSec: best[0].opsPerSec, AllocsPerRow: best[0].aux}
			if res.SerialRowsPerSec > 0 {
				pt.SpeedupVsSerial = pt.RowsPerSec / res.SerialRowsPerSec
			}
			res.Parallel = append(res.Parallel, pt)
		}
	}
	return res, nil
}

// Print renders the comparison as a table.
func (r ScanResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Full-table scan, %d rows, %d index leaves (pool holds index, not heap)\n", r.Rows, r.LeafPages)
	fmt.Fprintf(w, "%-36s %14s %12s %10s %12s %14s\n", "mode", "rows/s", "allocs/row", "hit rate", "leaf fetches", "disk reads/pass")
	for _, p := range r.Points {
		fetches := "-"
		if p.LeafFetches > 0 {
			fetches = fmt.Sprintf("%d", p.LeafFetches)
		}
		fmt.Fprintf(w, "%-36s %14.0f %12.3f %9.0f%% %12s %14.0f\n",
			p.Mode, p.RowsPerSec, p.AllocsPerRow, p.CacheHitRate*100, fetches, p.DiskReadsPerPass)
	}
	if len(r.Parallel) > 0 {
		fmt.Fprintf(w, "\nParallel segmented scans (GOMAXPROCS=%d on %d CPUs, serial baseline %.0f rows/s)\n",
			r.GOMAXPROCS, r.NumCPU, r.SerialRowsPerSec)
		fmt.Fprintf(w, "%-12s %-10s %14s %12s %22s\n", "segments", "merge", "rows/s", "allocs/row", "speedup")
		for _, p := range r.Parallel {
			fmt.Fprintf(w, "%-12d %-10s %14.0f %12.3f %22s\n",
				p.Segments, p.Mode, p.RowsPerSec, p.AllocsPerRow, r.scaling(p.Segments, p.SpeedupVsSerial))
		}
	}
}
