package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/tuple"
	"repro/internal/wiki"
	"repro/internal/workload"
)

// Fig2cConfig parameterizes the Figure 2(c) micro-benchmark: measured
// cost per lookup, cache vs nocache, with the whole database resident
// (buffer pool hit rate 100%).
type Fig2cConfig struct {
	Pages   int // rows in the page table
	Lookups int // lookups per measured phase
	Seed    int64
}

// DefaultFig2cConfig uses a table small enough to stay fully resident.
func DefaultFig2cConfig() Fig2cConfig {
	return Fig2cConfig{Pages: 20000, Lookups: 50000, Seed: 1}
}

// Fig2cPoint is one x position of the generated curve.
type Fig2cPoint struct {
	HitRate     float64
	CacheNsOp   float64 // h·T_hit + (1−h)·T_miss from measured endpoints
	NoCacheNsOp float64 // flat measured baseline
}

// Fig2cResult holds the measured operating points and the derived
// curve. The paper sweeps the hit rate synthetically; we measure three
// real operating points — the uncached index, a pure-hit workload on
// verified cache-resident keys, and a mixed workload — solve for the
// per-hit and per-miss latencies, and generate the curve from them.
type Fig2cResult struct {
	Config  Fig2cConfig
	Fixture FixtureConfig
	// Measured endpoints (ns/lookup):
	NoCacheNs  float64 // plain index + heap fetch
	HitNs      float64 // lookups answered from the index cache
	MixNs      float64 // uniform workload (measured hit rate MixHitRate)
	MixHitRate float64
	MissNs     float64 // solved: (MixNs − h·HitNs)/(1−h)
	// How the timed hot trace's lookups were answered: the T_hit anchor
	// is only a hit latency if every one was a cache hit that touched no
	// heap page.
	HotCacheHits, HotHeapAccesses int
	Points                        []Fig2cPoint
	// OverheadNs is MissNs−NoCacheNs: what a lookup pays for probing and
	// filling the cache without benefiting (paper: ~0.3µs).
	OverheadNs float64
	// SpeedupAtFull is NoCacheNs/HitNs (paper: 2.7×).
	SpeedupAtFull float64
	// BreakEvenHitRate is where the cache curve crosses the no-cache
	// line (paper: ~35%).
	BreakEvenHitRate float64
}

// RunFig2c builds one fully-resident page table with two indexes on
// the same key — one with the index cache, one without — and measures
// lookup latency at the three operating points.
func RunFig2c(cfg Fig2cConfig) (_ Fig2cResult, err error) {
	// 8 KiB pages and a pool far above the data: every page stays resident.
	res := Fig2cResult{Config: cfg, Fixture: FixtureConfig{Shape: PageShape, Pages: cfg.Pages, Seed: cfg.Seed,
		PageSize: 8192, PoolPages: 1 << 16}}
	f, err := NewFixture(res.Fixture)
	if err != nil {
		return Fig2cResult{}, err
	}
	defer closeEngine(f.Engine, &err)
	key := []string{"page_namespace", "page_title"}
	ixPlain, err := f.Table.CreateIndex("plain", key, core.WithFillFactor(0.68))
	if err != nil {
		return Fig2cResult{}, err
	}
	ixCache, err := f.Table.CreateIndex("name_title", key, core.WithFillFactor(0.68),
		core.WithCache(wiki.CachedPageFields()...), core.WithCacheSeed(cfg.Seed))
	if err != nil {
		return Fig2cResult{}, err
	}
	if _, err := ixCache.WarmCache(); err != nil {
		return Fig2cResult{}, err
	}
	proj := []string{"page_namespace", "page_title", "page_latest", "page_len"}

	// Precompute key values so trace replay measures only engine work.
	keys := make([][]tuple.Value, cfg.Pages)
	for i := range keys {
		keys[i] = fig2cKey(i)
	}

	// Identify verified cache-resident keys: those that hit in a pass in
	// which every lookup hit. A miss fills the cache, and a fill can evict
	// an entry verified earlier in the same pass.
	hot := make([]int, cfg.Pages)
	for i := range hot {
		hot[i] = i
	}
	for n := -1; n != len(hot); {
		n = len(hot)
		still := hot[:0]
		for _, i := range hot {
			_, res, err := ixCache.Lookup(proj, keys[i]...)
			if err != nil {
				return Fig2cResult{}, err
			}
			if res.CacheHit {
				still = append(still, i)
			}
		}
		hot = still
	}
	if len(hot) == 0 {
		return Fig2cResult{}, fmt.Errorf("experiments: no cache-resident keys after warmup")
	}

	rng := workload.NewRand(cfg.Seed + 42)
	hotTrace := make([][]tuple.Value, cfg.Lookups)
	for i := range hotTrace {
		hotTrace[i] = keys[hot[rng.Intn(len(hot))]]
	}
	uniTrace := make([][]tuple.Value, cfg.Lookups)
	for i := range uniTrace {
		uniTrace[i] = keys[rng.Intn(cfg.Pages)]
	}

	// Warm both indexes' code paths, then measure. Each measurement runs
	// its trace once untimed and once timed.
	if _, err := timeLookups(ixPlain, proj, uniTrace); err != nil {
		return Fig2cResult{}, err
	}
	plain, err := timeLookups(ixPlain, proj, uniTrace)
	if err != nil {
		return Fig2cResult{}, err
	}
	res.NoCacheNs = plain.ns

	if _, err := timeLookups(ixCache, proj, hotTrace); err != nil {
		return Fig2cResult{}, err
	}
	stBefore := ixCache.Cache().Stats()
	hits, err := timeLookups(ixCache, proj, hotTrace)
	if err != nil {
		return Fig2cResult{}, err
	}
	res.HitNs, res.HotCacheHits, res.HotHeapAccesses = hits.ns, hits.hits, hits.heap
	stAfter := ixCache.Cache().Stats()
	hotHit := ratioOf(stAfter.Hits-stBefore.Hits, stAfter.Lookups-stBefore.Lookups)
	if hotHit < 0.95 {
		return Fig2cResult{}, fmt.Errorf("experiments: hot trace hit rate %.2f too low to anchor T_hit", hotHit)
	}

	if _, err := timeLookups(ixCache, proj, uniTrace); err != nil {
		return Fig2cResult{}, err
	}
	stBefore = ixCache.Cache().Stats()
	mix, err := timeLookups(ixCache, proj, uniTrace)
	if err != nil {
		return Fig2cResult{}, err
	}
	res.MixNs = mix.ns
	stAfter = ixCache.Cache().Stats()
	res.MixHitRate = ratioOf(stAfter.Hits-stBefore.Hits, stAfter.Lookups-stBefore.Lookups)
	if res.MixHitRate >= 0.99 {
		return Fig2cResult{}, fmt.Errorf("experiments: mixed trace hit rate %.2f leaves no miss signal", res.MixHitRate)
	}
	res.MissNs = (res.MixNs - res.MixHitRate*res.HitNs) / (1 - res.MixHitRate)

	for h := 0.0; h <= 1.0001; h += 0.1 {
		res.Points = append(res.Points, Fig2cPoint{
			HitRate:     h,
			CacheNsOp:   h*res.HitNs + (1-h)*res.MissNs,
			NoCacheNsOp: res.NoCacheNs,
		})
	}
	res.OverheadNs = res.MissNs - res.NoCacheNs
	if res.HitNs > 0 {
		res.SpeedupAtFull = res.NoCacheNs / res.HitNs
	}
	if diff := res.MissNs - res.HitNs; diff > 0 {
		res.BreakEvenHitRate = (res.MissNs - res.NoCacheNs) / diff
	}
	return res, nil
}

func ratioOf(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func fig2cKey(i int) []tuple.Value {
	return []tuple.Value{
		tuple.Int32(int32(wiki.NamespaceOf(i))),
		tuple.String(wiki.PageTitle(i)),
	}
}

// lookupTally is one timed pass over a trace: ns per lookup, and how
// many lookups were cache hits and how many touched the heap.
type lookupTally struct {
	ns         float64
	hits, heap int
}

func timeLookups(ix *core.Index, proj []string, trace [][]tuple.Value) (lookupTally, error) {
	var t lookupTally
	start := time.Now()
	for _, key := range trace {
		_, res, err := ix.Lookup(proj, key...)
		if err != nil {
			return t, err
		}
		if !res.Found {
			return t, fmt.Errorf("experiments: trace key not found")
		}
		if res.CacheHit {
			t.hits++
		}
		if res.HeapAccess {
			t.heap++
		}
	}
	t.ns = float64(time.Since(start).Nanoseconds()) / float64(len(trace))
	return t, nil
}

// Print renders the measured endpoints and the derived curve.
func (r Fig2cResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 2(c): cost/lookup (µs), buffer pool hit rate = 100%%\n")
	fmt.Fprintf(w, "%v\n", r.Fixture)
	fmt.Fprintf(w, "measured endpoints: nocache=%.3fµs hit=%.3fµs miss=%.3fµs (mix ran at hit rate %.2f)\n",
		r.NoCacheNs/1000, r.HitNs/1000, r.MissNs/1000, r.MixHitRate)
	fmt.Fprintf(w, "%8s %12s %12s\n", "hit%", "cache µs", "nocache µs")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%8.0f %12.3f %12.3f\n", p.HitRate*100, p.CacheNsOp/1000, p.NoCacheNsOp/1000)
	}
	fmt.Fprintf(w, "cache overhead at zero hit rate: %.3f µs (paper: ~0.3 µs)\n", r.OverheadNs/1000)
	fmt.Fprintf(w, "break-even hit rate: %.0f%% (paper: ~35%%)\n", 100*r.BreakEvenHitRate)
	fmt.Fprintf(w, "speedup at full hit rate: %.2f× (paper: 2.7×)\n", r.SpeedupAtFull)
}
