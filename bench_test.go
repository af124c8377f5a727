package nblb

// One benchmark per paper artifact, as required by the reproduction
// harness. The full parameter sweeps (the actual figures) live in
// cmd/nblb-bench; these benches time the steady-state inner operation
// of each experiment so `go test -bench .` gives a one-screen summary.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/experiments"
	"repro/internal/idxcache"
	"repro/internal/metrics"
	"repro/internal/semid"
	"repro/internal/tuple"
	"repro/internal/vertical"
	"repro/internal/wiki"
	"repro/internal/workload"
)

// --- Figure 2(b): the three-tier cost model -----------------------------

func BenchmarkFig2bCostModel(b *testing.B) {
	m := metrics.DefaultCostModel()
	rng := workload.NewRand(3)
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total += m.LookupSeconds(true, rng.Float64() < 0.9, rng.Float64() < 0.96)
	}
	_ = total
}

// --- Figure 2(c): measured engine lookups -------------------------------

func fig2cEngine(b *testing.B, cached bool) (*core.Index, [][]tuple.Value) {
	b.Helper()
	e, err := core.NewEngine(core.Options{PageSize: 8192, BufferPoolPages: 1 << 15})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	tb, err := e.CreateTable("page", wiki.PageSchema())
	if err != nil {
		b.Fatal(err)
	}
	const pages = 10000
	gen := wiki.NewGenerator(wiki.Config{Pages: pages, RevisionsPerPage: 1, Alpha: 0.5, Seed: 1})
	for i := 0; i < pages; i++ {
		if _, err := tb.Insert(gen.PageRow(i, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	opts := []core.IndexOption{core.WithFillFactor(0.68)}
	if cached {
		opts = append(opts, core.WithCache(wiki.CachedPageFields()...))
	}
	ix, err := tb.CreateIndex("name_title", []string{"page_namespace", "page_title"}, opts...)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]tuple.Value, pages)
	for i := range keys {
		keys[i] = []tuple.Value{
			tuple.Int32(int32(wiki.NamespaceOf(i))),
			tuple.String(wiki.PageTitle(i)),
		}
	}
	return ix, keys
}

var fig2cProj = []string{"page_namespace", "page_title", "page_latest", "page_len"}

func BenchmarkFig2cCacheHit(b *testing.B) {
	ix, keys := fig2cEngine(b, true)
	if _, err := ix.WarmCache(); err != nil {
		b.Fatal(err)
	}
	// Collect verified-resident keys only.
	var hot [][]tuple.Value
	for _, k := range keys {
		if _, res, err := ix.Lookup(fig2cProj, k...); err == nil && res.CacheHit {
			hot = append(hot, k)
		}
	}
	if len(hot) == 0 {
		b.Fatal("no cache-resident keys")
	}
	rng := workload.NewRand(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Lookup(fig2cProj, hot[rng.Intn(len(hot))]...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2cCacheHitParallel is the cache-hit path under parallel
// load — the configuration the sharded buffer pool and lock-free
// projection cache exist for. Run with -cpu 8 to see scaling.
func BenchmarkFig2cCacheHitParallel(b *testing.B) {
	ix, keys := fig2cEngine(b, true)
	if _, err := ix.WarmCache(); err != nil {
		b.Fatal(err)
	}
	var hot [][]tuple.Value
	for _, k := range keys {
		if _, res, err := ix.Lookup(fig2cProj, k...); err == nil && res.CacheHit {
			hot = append(hot, k)
		}
	}
	if len(hot) == 0 {
		b.Fatal("no cache-resident keys")
	}
	var seq atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := seq.Add(1) * 0x9E3779B9
		buf := make(tuple.Row, 0, len(fig2cProj))
		for pb.Next() {
			n = n*1103515245 + 12345
			row, _, err := ix.LookupInto(buf, fig2cProj, hot[n%uint64(len(hot))]...)
			if err != nil {
				b.Error(err)
				return
			}
			buf = row
		}
	})
}

func BenchmarkFig2cNoCache(b *testing.B) {
	ix, keys := fig2cEngine(b, false)
	rng := workload.NewRand(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ix.Lookup(fig2cProj, keys[rng.Intn(len(keys))]...); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 3: clustering and partitioning ------------------------------

func fig3Lookup(b *testing.B, clusterFrac float64, partitioned bool) {
	b.Helper()
	e, err := core.NewEngine(core.Options{PageSize: 4096, BufferPoolPages: 120, CountIO: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	gen := wiki.NewGenerator(wiki.Config{Pages: 1000, RevisionsPerPage: 15, Alpha: 0.5, Seed: 1})
	revs, latest := gen.Revisions()

	var lookup func(revIdx int) error
	if partitioned {
		hc, err := NewHotCold(HotColdConfig{
			Engine: e, Name: "rev", Schema: wiki.RevisionSchema(), KeyFields: []string{"rev_id"},
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range revs {
			if r.Latest {
				_, err = hc.InsertHot(r.Row)
			} else {
				_, err = hc.InsertCold(r.Row)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		lookup = func(revIdx int) error {
			_, _, err := hc.Lookup(revs[revIdx].Row[0])
			return err
		}
	} else {
		tb, err := e.CreateTable("rev", wiki.RevisionSchema(), core.WithAppendOnlyHeap())
		if err != nil {
			b.Fatal(err)
		}
		rids := make([]RID, len(revs))
		for i, r := range revs {
			rid, err := tb.Insert(r.Row)
			if err != nil {
				b.Fatal(err)
			}
			rids[i] = rid
		}
		ix, err := tb.CreateIndex("rev_id", []string{"rev_id"}, core.WithFillFactor(0.68))
		if err != nil {
			b.Fatal(err)
		}
		if clusterFrac > 0 {
			hot := make([]RID, 0, len(latest))
			for _, idx := range latest {
				hot = append(hot, rids[idx])
			}
			if _, err := ClusterFraction(tb, hot, clusterFrac); err != nil {
				b.Fatal(err)
			}
		}
		lookup = func(revIdx int) error {
			_, _, err := ix.Lookup(nil, revs[revIdx].Row[0])
			return err
		}
	}
	trace := gen.RevisionTrace(4096, 0.999, len(revs), latest)
	for _, idx := range trace { // warm
		if err := lookup(idx); err != nil {
			b.Fatal(err)
		}
	}
	counter := e.IOCounter()
	counter.ResetCounts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lookup(trace[i%len(trace)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(counter.Reads())/float64(b.N), "diskReads/op")
}

func BenchmarkFig3Unclustered(b *testing.B)    { fig3Lookup(b, 0, false) }
func BenchmarkFig3Clustered54(b *testing.B)    { fig3Lookup(b, 0.54, false) }
func BenchmarkFig3Clustered100(b *testing.B)   { fig3Lookup(b, 1.0, false) }
func BenchmarkFig3HotPartitioned(b *testing.B) { fig3Lookup(b, 0, true) }

// --- §4.1 encoding: analyze, pack, unpack --------------------------------

func encBenchData(b *testing.B) (*tuple.Schema, []tuple.Row) {
	b.Helper()
	gen := wiki.NewGenerator(wiki.Config{Pages: 10, RevisionsPerPage: 1, Alpha: 0.5, Seed: 1})
	rows := make([]tuple.Row, 5000)
	for i := range rows {
		rows[i] = gen.CarTelRow(i)
	}
	return wiki.CarTelSchema(), rows
}

func BenchmarkEncAnalyze(b *testing.B) {
	schema, rows := encBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := 0
		encoding.AnalyzeRows("cartel", schema, func() (tuple.Row, bool) {
			if j >= len(rows) {
				return nil, false
			}
			r := rows[j]
			j++
			return r, true
		})
	}
}

func BenchmarkEncWastePacked(b *testing.B) {
	schema, rows := encBenchData(b)
	j := 0
	report := encoding.AnalyzeRows("cartel", schema, func() (tuple.Row, bool) {
		if j >= len(rows) {
			return nil, false
		}
		r := rows[j]
		j++
		return r, true
	})
	packed, err := encoding.PackedSchema(schema, report)
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = tuple.Encode(packed, rows[i%len(rows)], buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "bytes/row")
}

func BenchmarkEncDeclaredCodec(b *testing.B) {
	schema, rows := encBenchData(b)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = tuple.Encode(schema, rows[i%len(rows)], buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "bytes/row")
}

// --- §2.1.4 capacity closed form -----------------------------------------

func BenchmarkCapacityEstimate(b *testing.B) {
	e := idxcache.CapacityEstimate{
		KeyBytes: 360 << 20, FillFactor: 0.68, PageSize: 8192,
		PageOverhead: 44, ItemSize: 25, TableRows: 11_000_000,
	}
	var sink int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += e.Items()
	}
	_ = sink
}

// --- §4.2 semantic ID routing ---------------------------------------------

func BenchmarkSemIDRoutingTable(b *testing.B) {
	layout, _ := semid.NewLayout(6)
	table := semid.NewTableRouter()
	const tuples = 100000
	ids := make([]uint64, tuples)
	for i := range ids {
		id, _ := layout.Make(uint64(i%64), uint64(i))
		ids[i] = id
		table.Add(id, uint64(i%64))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.Route(ids[i%tuples]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSemIDRoutingEmbedded(b *testing.B) {
	layout, _ := semid.NewLayout(6)
	embedded := semid.NewEmbeddedRouter(layout)
	const tuples = 100000
	ids := make([]uint64, tuples)
	for i := range ids {
		id, _ := layout.Make(uint64(i%64), uint64(i))
		ids[i] = id
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := embedded.Route(ids[i%tuples]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §3.2 vertical partitioning -------------------------------------------

func vpartTable(b *testing.B) *vertical.VerticalTable {
	b.Helper()
	e, err := core.NewEngine(core.Options{PageSize: 4096, BufferPoolPages: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	schema := wiki.RevisionSchema()
	groups := [][]string{
		{"rev_page", "rev_text_id"},
		{"rev_timestamp", "rev_len", "rev_deleted"},
		{"rev_comment", "rev_user", "rev_user_text", "rev_minor_edit", "rev_parent_id"},
	}
	vt, err := vertical.NewVerticalTable(e, "rev", schema, "rev_id", groups)
	if err != nil {
		b.Fatal(err)
	}
	gen := wiki.NewGenerator(wiki.Config{Pages: 200, RevisionsPerPage: 10, Alpha: 0.5, Seed: 1})
	revs, _ := gen.Revisions()
	for _, r := range revs {
		if err := vt.Insert(r.Row); err != nil {
			b.Fatal(err)
		}
	}
	return vt
}

func BenchmarkVerticalNarrowRead(b *testing.B) {
	vt := vpartTable(b)
	fields := []string{"rev_page", "rev_text_id"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vt.GetFields(tuple.Int64(int64(i%1000+1)), fields); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerticalFullRead(b *testing.B) {
	vt := vpartTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := vt.Get(tuple.Int64(int64(i%1000 + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate microbenches ------------------------------------------------

func BenchmarkBTreeInsert(b *testing.B) {
	ix, _ := fig2cEngine(b, false)
	tree := ix.Tree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("bench-key-%012d", i))
		if _, err := tree.Insert(key, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeSearch(b *testing.B) {
	ix, keys := fig2cEngine(b, false)
	tree := ix.Tree()
	encoded := make([][]byte, len(keys))
	for i, k := range keys {
		enc, err := tuple.EncodeKey(nil, k...)
		if err != nil {
			b.Fatal(err)
		}
		encoded[i] = enc
	}
	rng := workload.NewRand(9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tree.Search(encoded[rng.Intn(len(encoded))]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- small experiment end-to-end benches ------------------------------------

func BenchmarkExpFig2aSmall(b *testing.B) {
	cfg := experiments.DefaultFig2aConfig()
	cfg.Items, cfg.Lookups, cfg.Sizes = 1000, 5000, []int{25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig2a(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpFig2bSmall(b *testing.B) {
	cfg := experiments.DefaultFig2bConfig()
	cfg.Lookups = 5000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.RunFig2b(cfg)
	}
}
