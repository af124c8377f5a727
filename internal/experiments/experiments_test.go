package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/encoding"
)

// The experiment tests run reduced configurations and assert the
// qualitative shapes the paper reports — who wins, in which direction,
// and by roughly what structure — not absolute numbers.

func TestFig2aShapes(t *testing.T) {
	cfg := DefaultFig2aConfig()
	cfg.Items, cfg.Lookups = 2000, 30000
	cfg.Sizes = []int{10, 25, 50, 100}
	res, err := RunFig2a(cfg)
	if err != nil {
		t.Fatalf("RunFig2a: %v", err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d points", len(res.Points))
	}
	for i, p := range res.Points {
		// Monotone in cache size.
		if i > 0 && p.Swap < res.Points[i-1].Swap-0.02 {
			t.Errorf("Swap not monotone at %d%%", p.SizePct)
		}
		// Swap ≥ Shrink (less cache can't help).
		if p.Shrink > p.Swap+0.02 {
			t.Errorf("Shrink beats Swap at %d%%", p.SizePct)
		}
		// Nothing beats the clairvoyant bound (cold-start misses keep the
		// average strictly below it).
		if p.Swap > p.Ideal+0.02 {
			t.Errorf("Swap exceeds ideal at %d%%", p.SizePct)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 2(a)") {
		t.Error("Print output missing header")
	}
}

func TestFig2bShapes(t *testing.T) {
	cfg := DefaultFig2bConfig()
	cfg.Lookups = 20000
	res := RunFig2b(cfg)
	if len(res.MsPerLookup) != len(cfg.BufferPoolRates) {
		t.Fatalf("series count %d", len(res.MsPerLookup))
	}
	// Higher buffer pool hit rate is strictly cheaper at cache rate 0.
	for i := 1; i < len(cfg.BufferPoolRates); i++ {
		if res.MsPerLookup[i][0] >= res.MsPerLookup[i-1][0] {
			t.Errorf("bp=%.2f not cheaper than bp=%.2f", cfg.BufferPoolRates[i], cfg.BufferPoolRates[i-1])
		}
	}
	// Cache hit rate 100% collapses every series to the same floor.
	last := len(cfg.CacheRates) - 1
	floor := res.MsPerLookup[0][last]
	for i := range cfg.BufferPoolRates {
		if res.MsPerLookup[i][last] != floor {
			t.Errorf("series %d floor %f != %f", i, res.MsPerLookup[i][last], floor)
		}
	}
	// The paper's headline: ~4 orders of magnitude between bp=0% at
	// cache=0 and the all-hit floor.
	if res.MsPerLookup[0][0] < 1000*floor {
		t.Errorf("dynamic range too small: %f vs floor %f", res.MsPerLookup[0][0], floor)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "bp=96%") {
		t.Error("Print output missing series")
	}
}

// TestFig2cShapes checks the figure's shape in counts, which repeat:
// the hot trace that anchors T_hit is all cache hits and no heap page;
// the mix that solves T_miss has hits and misses both; the curve has its
// 11 points; the report still states break-even. Its latencies are wall
// clock on whatever box runs the test, so they are printed, not asserted.
func TestFig2cShapes(t *testing.T) {
	cfg := DefaultFig2cConfig()
	cfg.Pages, cfg.Lookups = 4000, 5000
	res, err := RunFig2c(cfg)
	if err != nil {
		t.Fatalf("RunFig2c: %v", err)
	}
	if res.HotCacheHits != cfg.Lookups || res.HotHeapAccesses != 0 {
		t.Errorf("hot trace: %d of %d lookups hit the cache, %d touched the heap; want all hits, no heap",
			res.HotCacheHits, cfg.Lookups, res.HotHeapAccesses)
	}
	if res.MixHitRate <= 0 || res.MixHitRate >= 1 {
		t.Errorf("mixed trace hit rate %.3f, want strictly between 0 and 1", res.MixHitRate)
	}
	if len(res.Points) != 11 {
		t.Errorf("%d curve points", len(res.Points))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "break-even") {
		t.Error("Print output missing break-even")
	}
	t.Logf("\n%s", buf.String())
}

func TestFig3Shapes(t *testing.T) {
	// The partition's advantage needs the paper's regime: the full
	// index must not fit the buffer pool while the hot partition's
	// (index + heap) does.
	cfg := DefaultFig3Config()
	cfg.Pages, cfg.Queries = 1500, 3000
	cfg.RevisionsPerPage = 15
	cfg.BufferPoolPages = 80
	res, err := RunFig3(cfg)
	if err != nil {
		t.Fatalf("RunFig3: %v", err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("%d points", len(res.Points))
	}
	base, c54, c100, part := res.Points[0], res.Points[1], res.Points[2], res.Points[3]
	// Clustering monotonically improves; partitioning wins outright.
	if c54.MsPerQuery >= base.MsPerQuery {
		t.Errorf("54%% clustering (%.3f) no better than baseline (%.3f)", c54.MsPerQuery, base.MsPerQuery)
	}
	if c100.MsPerQuery >= c54.MsPerQuery {
		t.Errorf("100%% clustering (%.3f) no better than 54%% (%.3f)", c100.MsPerQuery, c54.MsPerQuery)
	}
	if part.MsPerQuery >= c100.MsPerQuery {
		t.Errorf("partition (%.3f) no better than full clustering (%.3f)", part.MsPerQuery, c100.MsPerQuery)
	}
	// The hot partition's index must be much smaller than the full one.
	if res.IndexShrinkFactor < 3 {
		t.Errorf("index shrink factor %.1f too small", res.IndexShrinkFactor)
	}
	// Baseline diagnosis: hot tuples scattered over most pages.
	if res.BaselineHotScatter < 0.3 {
		t.Errorf("hot scatter %.2f suspiciously low", res.BaselineHotScatter)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Partition") {
		t.Error("Print output missing Partition row")
	}
}

func TestEncWasteShapes(t *testing.T) {
	cfg := DefaultEncWasteConfig()
	cfg.Rows = 2500
	res, err := RunEncWaste(cfg)
	if err != nil {
		t.Fatalf("RunEncWaste: %v", err)
	}
	if len(res.Reports) != 4 {
		t.Fatalf("%d reports", len(res.Reports))
	}
	byName := map[string]float64{}
	prefixes := map[string]string{}
	for _, rep := range res.Reports {
		byName[rep.Name] = rep.WastePct()
		for _, c := range rep.Columns {
			if c.Rec.Enc == encoding.EncNumericString {
				prefixes[c.Rec.Field.Name] = c.Rec.Prefix
			}
		}
	}
	// Titles and user names are a shared prefix and a decimal: the advisor
	// keeps the prefix once and stores the decimal (they were raw before
	// it read prefixes, and the revision and page tables' waste rose with
	// them: 54 → 62 % and 50 → 80 % at 20k rows).
	if !strings.HasPrefix(prefixes["page_title"], "Article_0") || prefixes["rev_user_text"] != "User_" {
		t.Errorf("numeric-string prefixes %q, want page_title \"Article_0…\" and rev_user_text \"User_\"", prefixes)
	}
	// Metadata tables waste a lot; the text table wastes almost nothing.
	for _, name := range []string{"revision", "page", "cartel"} {
		if byName[name] < 30 {
			t.Errorf("%s waste %.1f%% too low", name, byName[name])
		}
	}
	if byName["text"] > 15 {
		t.Errorf("text waste %.1f%% too high for blob data", byName["text"])
	}
	// Aggregate near the paper's ~20%.
	if agg := res.AggregateWastePct(); agg < 10 || agg > 45 {
		t.Errorf("aggregate waste %.1f%% outside plausible band", agg)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "flagship") {
		t.Error("Print output missing the timestamp14 case")
	}
}

func TestCapacityShapes(t *testing.T) {
	cfg := DefaultCapacityConfig()
	cfg.Pages = 3000
	res, err := RunCapacity(cfg)
	if err != nil {
		t.Fatalf("RunCapacity: %v", err)
	}
	if res.MeasuredFill < 0.55 || res.MeasuredFill > 0.75 {
		t.Errorf("measured fill %.2f far from configured 0.68", res.MeasuredFill)
	}
	if res.MeasuredSlots == 0 {
		t.Error("no cache slots measured")
	}
	if res.MeasuredCoverage <= 0.2 {
		t.Errorf("coverage %.2f too low", res.MeasuredCoverage)
	}
	// Closed form with the paper's inputs must land near their 7.9M.
	items := res.PaperEstimate.Items()
	if items < 5_000_000 || items > 10_000_000 {
		t.Errorf("paper-input estimate %d items, want ≈7.9M", items)
	}
}

func TestSemIDShapes(t *testing.T) {
	cfg := DefaultSemIDConfig()
	cfg.Tuples, cfg.Lookups = 50000, 100000
	res, err := RunSemID(cfg)
	if err != nil {
		t.Fatalf("RunSemID: %v", err)
	}
	if res.TableBytes <= 1000*res.EmbeddedBytes {
		t.Errorf("routing table %d bytes not ≫ embedded %d", res.TableBytes, res.EmbeddedBytes)
	}
	if res.EmbeddedNsOp >= res.TableNsOp {
		t.Errorf("embedded routing (%.1fns) not faster than table (%.1fns)", res.EmbeddedNsOp, res.TableNsOp)
	}
	if len(res.Reductions) != 2 {
		t.Errorf("%d reductions", len(res.Reductions))
	}
}

func TestVPartShapes(t *testing.T) {
	cfg := DefaultVPartConfig()
	cfg.Rows, cfg.Queries = 2000, 4000
	res, err := RunVPart(cfg)
	if err != nil {
		t.Fatalf("RunVPart: %v", err)
	}
	if len(res.Split.Groups) < 2 {
		t.Fatalf("advisor did not split: %v", res.Split.Groups)
	}
	if res.Split.Gain() <= 0 {
		t.Errorf("split gain %.2f not positive", res.Split.Gain())
	}
	// Narrow reads and updates touch one group; full reads pay the merge.
	if res.HotReadTouches > 1.01 {
		t.Errorf("hot reads touch %.2f groups", res.HotReadTouches)
	}
	if res.UpdateTouches > 1.01 {
		t.Errorf("updates touch %.2f groups", res.UpdateTouches)
	}
	if res.FullReadTouches < 1.9 {
		t.Errorf("full reads touch %.2f groups; merge cost missing", res.FullReadTouches)
	}
}

func TestCoveringShapes(t *testing.T) {
	cfg := DefaultCoveringConfig()
	cfg.Pages = 3000
	res, err := RunCovering(cfg)
	if err != nil {
		t.Fatalf("RunCovering: %v", err)
	}
	// The cache adds zero index bytes; the covering index bloats.
	if res.CachedIndexBytes != res.PlainIndexBytes {
		t.Errorf("cache changed index size: %d vs %d", res.CachedIndexBytes, res.PlainIndexBytes)
	}
	if res.Bloat() < 1.2 {
		t.Errorf("covering index bloat %.2f suspiciously low", res.Bloat())
	}
	if res.CacheCoverage <= 0.2 {
		t.Errorf("cache coverage %.2f too low", res.CacheCoverage)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "bloat") {
		t.Error("Print output missing bloat")
	}
}

func TestJoinCacheShapes(t *testing.T) {
	cfg := DefaultJoinCacheConfig()
	cfg.Pages, cfg.Queries = 300, 8000
	res, err := RunJoinCache(cfg)
	if err != nil {
		t.Fatalf("RunJoinCache: %v", err)
	}
	// The join cache must eliminate a substantial share of dimension
	// lookups under a skewed workload.
	if res.HitRate < 0.3 {
		t.Errorf("join-cache hit rate %.2f too low", res.HitRate)
	}
	if res.Saved() < 0.3 {
		t.Errorf("only %.1f%% of dimension lookups eliminated", 100*res.Saved())
	}
	if res.DimLookupsCached >= res.DimLookupsBaseline {
		t.Error("cached run did not reduce dimension lookups")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "eliminated") {
		t.Error("Print output missing summary")
	}
}

func TestAblatePlacementShapes(t *testing.T) {
	cfg := DefaultAblatePlacementConfig()
	cfg.Items, cfg.Lookups = 3000, 40000
	cfg.BucketNs = []int{2, 8}
	res, err := RunAblatePlacement(cfg)
	if err != nil {
		t.Fatalf("RunAblatePlacement: %v", err)
	}
	var swap, noPromote *AblatePlacementRow
	for i := range res.Rows {
		switch res.Rows[i].Policy {
		case "swap-toward-center":
			swap = &res.Rows[i]
		case "no-promotion":
			noPromote = &res.Rows[i]
		}
	}
	if swap == nil || noPromote == nil {
		t.Fatal("policy rows missing")
	}
	// The design claim: swapping matters under shrink.
	if swap.HitShrink <= noPromote.HitShrink {
		t.Errorf("swap (%.3f) should beat no-promotion (%.3f) under shrink",
			swap.HitShrink, noPromote.HitShrink)
	}
}

func TestScanShapes(t *testing.T) {
	cfg := DefaultScanConfig()
	cfg.Rows, cfg.Passes = 5000, 2
	res, err := RunScan(cfg)
	if err != nil {
		t.Fatalf("RunScan: %v", err)
	}
	if res.Rows != cfg.Rows || res.LeafPages < 2 || len(res.Points) != 3 {
		t.Fatalf("shape: rows=%d leaves=%d points=%d", res.Rows, res.LeafPages, len(res.Points))
	}
	byMode := map[string]ScanPoint{}
	for _, p := range res.Points {
		if p.RowsPerSec <= 0 {
			t.Errorf("%s: rows/sec %.0f", p.Mode, p.RowsPerSec)
		}
		byMode[p.Mode] = p
	}
	cache := byMode["cursor-cache-first"]
	if cache.CacheHitRate != 1.0 {
		t.Errorf("cache-first hit rate %.2f, want 1.0 (warm, low fill factor)", cache.CacheHitRate)
	}
	// The acceptance criterion: cache-resident scans do ~0 allocs/row
	// and fetch each leaf exactly once.
	if cache.AllocsPerRow >= 0.05 {
		t.Errorf("cache-first allocs/row %.3f, want ~0", cache.AllocsPerRow)
	}
	if cache.LeafFetches != int64(res.LeafPages) {
		t.Errorf("cache-first leaf fetches %d, want %d (one per leaf)", cache.LeafFetches, res.LeafPages)
	}
	if heap := byMode["cursor-heap-only"]; heap.CacheHitRate != 0 {
		t.Errorf("heap-only hit rate %.2f, want 0", heap.CacheHitRate)
	}
	// Direction symmetry: with doubly linked leaves, a reverse scan
	// fetches exactly one page per leaf, same as forward.
	rev := byMode["cursor-cache-first-reverse"]
	if rev.LeafFetches != cache.LeafFetches {
		t.Errorf("reverse leaf fetches %d, want %d (symmetry with forward)",
			rev.LeafFetches, cache.LeafFetches)
	}
	if rev.CacheHitRate != 1.0 {
		t.Errorf("reverse cache-first hit rate %.2f, want 1.0", rev.CacheHitRate)
	}
	// Parallel series: every (segments, mode) leg present with a
	// measured throughput and a speedup relative to the serial scan.
	if res.SerialRowsPerSec != cache.RowsPerSec {
		t.Errorf("serial_rows_per_sec %.0f, want cache-first %.0f", res.SerialRowsPerSec, cache.RowsPerSec)
	}
	if len(res.Parallel) != 6 {
		t.Fatalf("parallel series has %d points, want 6 (n∈{1,2,4} × 2 modes)", len(res.Parallel))
	}
	seen := map[string]bool{}
	for _, p := range res.Parallel {
		if p.RowsPerSec <= 0 || p.SpeedupVsSerial <= 0 {
			t.Errorf("parallel n=%d %s: rows/s %.0f speedup %.2f", p.Segments, p.Mode, p.RowsPerSec, p.SpeedupVsSerial)
		}
		seen[fmt.Sprintf("%d/%s", p.Segments, p.Mode)] = true
	}
	for _, want := range []string{"1/ordered", "1/unordered", "2/ordered", "2/unordered", "4/ordered", "4/unordered"} {
		if !seen[want] {
			t.Errorf("parallel leg %s missing", want)
		}
	}
}

// TestWriteShapes checks the three table sweeps in counts: every cell
// present and measured, and rows per fsync at least the batch size. The
// batched-vs-one-row and txn-vs-raw ratios are wall clock, so benchgate
// holds them, in a process that runs nothing else.
func TestWriteShapes(t *testing.T) {
	cfg := DefaultWriteConfig()
	cfg.BatchOps = 8000
	cfg.BatchSizes = []int{32}
	cfg.DurableOps = 4000
	cfg.DurableBatchSize = 32
	cfg.TxnOps = 4000
	cfg.Goroutines = []int{1, 2}
	res, err := RunWrite(cfg)
	if err != nil {
		t.Fatalf("RunWrite: %v", err)
	}
	if want := len(cfg.Goroutines) * len(cfg.BatchSizes); len(res.BatchPoints) != want {
		t.Fatalf("batch shape: %d points, want %d", len(res.BatchPoints), want)
	}
	for _, p := range res.BatchPoints {
		if p.OneRowOpsPerSec <= 0 || p.BatchedOpsPerSec <= 0 {
			t.Errorf("batch g=%d size=%d: nonpositive throughput %+v", p.Goroutines, p.BatchSize, p)
		}
	}
	if len(res.DurablePoints) != len(cfg.Goroutines) {
		t.Fatalf("durable shape: %d points, want %d", len(res.DurablePoints), len(cfg.Goroutines))
	}
	for _, p := range res.DurablePoints {
		if p.NonDurableOpsPerSec <= 0 || p.GroupCommitOpsPerSec <= 0 || p.SyncNoneOpsPerSec <= 0 {
			t.Errorf("durable g=%d: nonpositive throughput %+v", p.Goroutines, p)
		}
		// One WAL record per Apply and at most one fsync per commit, so
		// rows/fsync ≥ batch size by construction at every goroutine
		// count — no timing involved, safe even under race.
		if p.OpsPerFsync < float64(cfg.DurableBatchSize) {
			t.Errorf("durable g=%d: %.1f rows/fsync, want ≥ batch size %d",
				p.Goroutines, p.OpsPerFsync, cfg.DurableBatchSize)
		}
	}
	if len(res.TxnPoints) != len(cfg.Goroutines) {
		t.Fatalf("txn shape: %d points, want %d", len(res.TxnPoints), len(cfg.Goroutines))
	}
	for _, p := range res.TxnPoints {
		if p.RawOpsPerSec <= 0 || p.TxnOpsPerSec <= 0 {
			t.Errorf("txn g=%d: nonpositive throughput %+v", p.Goroutines, p)
		}
	}
}

func TestServeShapes(t *testing.T) {
	cfg := DefaultServeConfig()
	cfg.Conns = []int{1, 4}
	cfg.OpsPerConn = 60
	res, err := RunServe(cfg)
	if err != nil {
		t.Fatalf("RunServe: %v", err)
	}
	if res.OpsPerConn != cfg.OpsPerConn || res.BatchOps != cfg.BatchOps {
		t.Fatalf("shape: ops_per_conn=%d batch_ops=%d", res.OpsPerConn, res.BatchOps)
	}
	if len(res.Coalesced) != len(cfg.Conns) || len(res.Direct) != len(cfg.Conns) {
		t.Fatalf("shape: %d coalesced / %d direct points, want %d each",
			len(res.Coalesced), len(res.Direct), len(cfg.Conns))
	}
	check := func(sweep string, pts []ServePoint) {
		for i, p := range pts {
			if p.Conns != cfg.Conns[i] {
				t.Errorf("%s[%d]: conns %d, want %d", sweep, i, p.Conns, cfg.Conns[i])
			}
			if p.OpsPerSec <= 0 || p.P50Micros <= 0 || p.P99Micros < p.P50Micros {
				t.Errorf("%s conns=%d: implausible point %+v", sweep, p.Conns, p)
			}
			// Every acked row hit the WAL, and an fsync never covers less
			// than one row — structural, not timing-dependent.
			if p.OpsPerFsync < 1 {
				t.Errorf("%s conns=%d: %.2f ops/fsync, want ≥ 1", sweep, p.Conns, p.OpsPerFsync)
			}
		}
	}
	check("coalesced", res.Coalesced)
	check("direct", res.Direct)
	for _, p := range res.Coalesced {
		if p.OpsPerCycle < 1 {
			t.Errorf("coalesced conns=%d: %.2f ops per cycle, want ≥ 1", p.Conns, p.OpsPerCycle)
		}
	}
	// With the coalescer off every request is a cycle of its own — there
	// are no shared cycles to count.
	for _, p := range res.Direct {
		if p.OpsPerCycle != 0 {
			t.Errorf("direct conns=%d: ops_per_cycle %.2f, want 0", p.Conns, p.OpsPerCycle)
		}
	}
}
