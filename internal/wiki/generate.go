package wiki

import (
	"fmt"
	"math/rand"

	"repro/internal/tuple"
	"repro/internal/workload"
)

// Generator produces deterministic synthetic Wikipedia rows and traces.
type Generator struct {
	rng *rand.Rand
	cfg Config
}

// Config sizes the synthetic database.
type Config struct {
	// Pages is the number of articles.
	Pages int
	// RevisionsPerPage is the mean length of each article's history.
	// Actual counts are geometric-ish around this mean, so hot tuples
	// (the latest revision per page) are ~1/RevisionsPerPage of the
	// revision table — the paper's "5%" corresponds to a mean of 20.
	RevisionsPerPage int
	// Alpha is the zipf skew of page popularity (Figure 2 uses 0.5).
	Alpha float64
	// Seed fixes all randomness.
	Seed int64
}

// NewGenerator builds a generator. It panics on nonsensical configs
// (programmer error in experiment setup).
func NewGenerator(cfg Config) *Generator {
	if cfg.Pages <= 0 || cfg.RevisionsPerPage <= 0 {
		panic(fmt.Sprintf("wiki: bad config %+v", cfg))
	}
	return &Generator{rng: workload.NewRand(cfg.Seed), cfg: cfg}
}

// PageTitle returns the deterministic title of page i.
func PageTitle(i int) string { return fmt.Sprintf("Article_%07d", i) }

// PageRow builds the page-table row for page i. latestRev is filled by
// the revision generator; callers building only the page table can pass
// any value.
func (g *Generator) PageRow(i int, latestRev int64) tuple.Row {
	return tuple.Row{
		tuple.Int64(int64(i + 1)),
		tuple.Int32(int32(NamespaceOf(i))),
		tuple.String(PageTitle(i)),
		tuple.Bool(i%29 == 0), // ~3% redirects
		tuple.Int64(latestRev),
		tuple.Int32(int32(500 + g.rng.Intn(60000))),
		tuple.TimestampUnix(1293840000 + int64(g.rng.Intn(5_000_000))),
		tuple.String(""),
	}
}

// NamespaceOf assigns ~92% of pages to the main namespace (0), the rest
// to talk/user namespaces, mirroring Wikipedia's distribution. Exported
// so workloads can rebuild the (namespace, title) key of page i.
func NamespaceOf(i int) int {
	switch {
	case i%25 == 7:
		return 1 // Talk
	case i%50 == 13:
		return 2 // User
	default:
		return 0
	}
}

// Revision is one generated revision-table row plus its metadata.
type Revision struct {
	Row tuple.Row
	// PageIdx is the article this revision belongs to.
	PageIdx int
	// Latest marks the hot tuples: the newest revision of each page.
	Latest bool
}

// Revisions generates the full revision table in timestamp order —
// crucially, *interleaved across pages* the way MediaWiki writes them,
// so the latest revisions end up scattered across the table exactly as
// Section 3.1 describes. The i-th element of the returned latest slice
// is the index (within the returned revisions) of page i's hot tuple.
func (g *Generator) Revisions() (revs []Revision, latestOfPage []int) {
	cfg := g.cfg
	// Draw per-page history lengths: 1 + geometric with the configured
	// mean, capped to keep the table size predictable.
	counts := make([]int, cfg.Pages)
	total := 0
	for i := range counts {
		n := 1 + g.rng.Intn(2*cfg.RevisionsPerPage-1)
		counts[i] = n
		total += n
	}
	// Interleave: repeatedly pick a random page that still has pending
	// revisions and emit its next one. This scatters each page's history
	// (and in particular its final, hot revision) across the table.
	remaining := append([]int(nil), counts...)
	pending := make([]int, 0, cfg.Pages)
	for i := range remaining {
		pending = append(pending, i)
	}
	revs = make([]Revision, 0, total)
	latestOfPage = make([]int, cfg.Pages)
	ts := int64(1262304000) // 2010-01-01
	revID := int64(0)
	for len(pending) > 0 {
		pi := g.rng.Intn(len(pending))
		page := pending[pi]
		remaining[page]--
		last := remaining[page] == 0
		if last {
			pending[pi] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
		revID++
		ts += int64(1 + g.rng.Intn(30))
		row := tuple.Row{
			tuple.Int64(revID),
			tuple.Int64(int64(page + 1)),
			tuple.Int64(revID + 1_000_000),
			tuple.String(commentText(g.rng)),
			tuple.Int64(int64(1 + g.rng.Intn(5000))),
			tuple.String(fmt.Sprintf("User_%04d", g.rng.Intn(5000))),
			tuple.Char(timestamp14(ts)),
			tuple.Int64(int64(g.rng.Intn(2))), // 0/1 in a BIGINT
			tuple.Int64(int64(g.rng.Intn(4))), // 0..3 in a BIGINT
			tuple.Int64(int64(g.rng.Intn(60000))),
			tuple.Int64(max(revID-1, 0)),
		}
		idx := len(revs)
		revs = append(revs, Revision{Row: row, PageIdx: page, Latest: last})
		if last {
			latestOfPage[page] = idx
		}
	}
	return revs, latestOfPage
}

// timestamp14 renders epoch seconds as MediaWiki's 14-char string by
// the rule a record layout's timestamp slot rebuilds it with, so a
// packed record round-trips generated timestamps exactly.
func timestamp14(epoch int64) string { return string(tuple.AppendTS14(nil, epoch)) }

var commentWords = []string{
	"fix typo", "revert vandalism", "add citation", "update infobox",
	"copyedit", "expand section", "merge", "cleanup", "sp", "rm spam",
}

// commentText mixes canned edit summaries with free text so the column
// has realistic cardinality (the §4.1 analyzer must not find a tiny
// dictionary where real data wouldn't have one).
func commentText(rng *rand.Rand) string {
	base := commentWords[rng.Intn(len(commentWords))]
	if rng.Intn(3) == 0 {
		return base
	}
	return fmt.Sprintf("%s in section %d, ref %d", base, rng.Intn(40), rng.Intn(100000))
}

// TextRow generates one text-table row: mostly-unique article prose.
func (g *Generator) TextRow(i int) tuple.Row {
	var b []byte
	n := 200 + g.rng.Intn(600)
	for len(b) < n {
		w := commentWords[g.rng.Intn(len(commentWords))]
		b = append(b, w...)
		b = append(b, ' ')
		b = append(b, byte('a'+g.rng.Intn(26)), byte('0'+g.rng.Intn(10)), ' ')
	}
	return tuple.Row{
		tuple.Int64(int64(i + 1)),
		tuple.String(string(b)),
		tuple.String("utf-8,gzip"),
	}
}

// CarTelRow generates one synthetic telemetry row.
func (g *Generator) CarTelRow(i int) tuple.Row {
	return tuple.Row{
		tuple.Int64(int64(i + 1)),
		tuple.Int64(int64(1 + g.rng.Intn(40))),
		tuple.Int64(int64(1 + g.rng.Intn(8000))),
		tuple.Float64(42.3 + g.rng.Float64()*0.4),
		tuple.Float64(-71.2 + g.rng.Float64()*0.4),
		tuple.Int64(int64(g.rng.Intn(201))),
		tuple.Int64(int64(g.rng.Intn(360))),
		tuple.Int64(int64(g.rng.Intn(51))),
		tuple.Int64(int64(g.rng.Intn(2))),
		tuple.Char(timestamp14(1262304000 + int64(i))),
	}
}

// PageLookupTrace returns n (namespace, title) lookup targets drawn
// zipfian over pages: the Figure 2 query workload against name_title.
func (g *Generator) PageLookupTrace(n int) []int {
	zipf := workload.NewZipf(g.rng, g.cfg.Pages, g.cfg.Alpha)
	out := make([]int, n)
	for i := range out {
		out[i] = zipf.Next()
	}
	return out
}

// RevisionTrace returns n revision accesses where hotProb of them hit
// the latest revision of a zipf-popular page and the rest hit a random
// historical revision — the Section 3.1 access pattern (hotProb 0.999).
// Entries are indexes into the slice returned by Revisions, whose
// length is rows.
func (g *Generator) RevisionTrace(n int, hotProb float64, rows int, latestOfPage []int) []int {
	zipf := workload.NewZipf(g.rng, g.cfg.Pages, g.cfg.Alpha)
	out := make([]int, n)
	for i := range out {
		if g.rng.Float64() < hotProb {
			out[i] = latestOfPage[zipf.Next()]
		} else {
			out[i] = g.rng.Intn(rows)
		}
	}
	return out
}
