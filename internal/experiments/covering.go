package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/wiki"
)

// CoveringConfig parameterizes the §2.1 design comparison the paper
// makes in passing: instead of caching hot tuples in free space, one
// could build a covering index (all projected fields in the key). The
// paper's objection: "covering indices still store cold data, waste
// space and bloat the index size, which wastes more total bytes, and
// increases pressure on RAM."
type CoveringConfig struct {
	Pages int
	Seed  int64
}

// DefaultCoveringConfig compares at 20k rows.
func DefaultCoveringConfig() CoveringConfig {
	return CoveringConfig{Pages: 20000, Seed: 1}
}

// CoveringResult sizes both designs.
type CoveringResult struct {
	Config  CoveringConfig
	Fixture FixtureConfig
	// PlainIndexBytes is the name_title index alone.
	PlainIndexBytes int64
	// CachedIndexBytes is the same index with the cache enabled — by
	// construction identical in size (the cache lives in existing free
	// space).
	CachedIndexBytes int64
	// CoveringIndexBytes appends the four projected fields to the key.
	CoveringIndexBytes int64
	// CacheCoverage is the fraction of rows the recycled free space can
	// hold — what the cache gives "for free".
	CacheCoverage float64
}

// RunCovering builds the three indexes and compares their footprints.
func RunCovering(cfg CoveringConfig) (_ CoveringResult, err error) {
	res := CoveringResult{Config: cfg, Fixture: FixtureConfig{Shape: PageShape, Pages: cfg.Pages, Seed: cfg.Seed,
		PageSize: 8192, PoolPages: 1 << 16}}
	f, err := NewFixture(res.Fixture)
	if err != nil {
		return CoveringResult{}, err
	}
	defer closeEngine(f.Engine, &err)

	plain, err := f.Table.CreateIndex("plain", []string{"page_namespace", "page_title"},
		core.WithFillFactor(0.68))
	if err != nil {
		return CoveringResult{}, err
	}
	ps, err := plain.Tree().Stats()
	if err != nil {
		return CoveringResult{}, err
	}
	res.PlainIndexBytes = ps.SizeBytes

	cached, err := f.Table.CreateIndex("cached", []string{"page_namespace", "page_title"},
		core.WithFillFactor(0.68), core.WithCache(wiki.CachedPageFields()...))
	if err != nil {
		return CoveringResult{}, err
	}
	cs, err := cached.Tree().Stats()
	if err != nil {
		return CoveringResult{}, err
	}
	res.CachedIndexBytes = cs.SizeBytes
	if n, err := cached.WarmCache(); err == nil {
		res.CacheCoverage = float64(n) / float64(cfg.Pages)
	} else {
		return CoveringResult{}, err
	}

	// Covering index: the four extra fields join the key. It answers the
	// same projections index-only, but every tuple — hot or cold — pays.
	covering, err := f.Table.CreateIndex("covering", []string{
		"page_namespace", "page_title",
		"page_is_redirect", "page_latest", "page_len", "page_touched",
	}, core.WithFillFactor(0.68))
	if err != nil {
		return CoveringResult{}, err
	}
	vs, err := covering.Tree().Stats()
	if err != nil {
		return CoveringResult{}, err
	}
	res.CoveringIndexBytes = vs.SizeBytes
	return res, nil
}

// Bloat returns covering / plain size.
func (r CoveringResult) Bloat() float64 {
	if r.PlainIndexBytes == 0 {
		return 0
	}
	return float64(r.CoveringIndexBytes) / float64(r.PlainIndexBytes)
}

// Print renders the comparison.
func (r CoveringResult) Print(w io.Writer) {
	fmt.Fprintf(w, "§2.1 design comparison: index cache vs covering index (%d rows)\n", r.Config.Pages)
	fmt.Fprintf(w, "%v\n", r.Fixture)
	fmt.Fprintf(w, "%-28s %12s\n", "design", "index bytes")
	fmt.Fprintf(w, "%-28s %12d\n", "plain name_title", r.PlainIndexBytes)
	fmt.Fprintf(w, "%-28s %12d  (+cache holds %.0f%% of rows in existing free space)\n",
		"with index cache", r.CachedIndexBytes, 100*r.CacheCoverage)
	fmt.Fprintf(w, "%-28s %12d  (%.2f× bloat, hot and cold alike)\n",
		"covering (4 extra fields)", r.CoveringIndexBytes, r.Bloat())
}
