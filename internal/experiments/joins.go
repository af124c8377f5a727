package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/joincache"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wiki"
	"repro/internal/workload"
)

// JoinCacheConfig parameterizes the Section 2.2 extension experiment:
// revision→page foreign-key joins answered from the revision heap
// pages' free space.
type JoinCacheConfig struct {
	Pages            int
	RevisionsPerPage int
	Queries          int
	Seed             int64
}

// The update leg splits the queries into joinRounds rounds; between two,
// joinUpdateShare of the page rows get a new page_latest and page_len.
const (
	joinRounds      = 10
	joinUpdateShare = 0.1
)

// DefaultJoinCacheConfig joins against 1000 articles.
func DefaultJoinCacheConfig() JoinCacheConfig {
	return JoinCacheConfig{Pages: 1000, RevisionsPerPage: 10, Queries: 30000, Seed: 1}
}

// JoinCacheResult measures dimension-side work avoided.
type JoinCacheResult struct {
	Config JoinCacheConfig
	// Fixture is the page table the joins resolve against; the revision
	// table is drawn after it (Fixture.Add).
	Fixture FixtureConfig
	// HitRate is the join-cache hit rate over the read-only leg.
	HitRate float64
	// DimLookupsCached counts the page-table index lookups the
	// read-only leg made; without the cache, each query makes one.
	DimLookupsCached int64
	// UpdateHitRate is the hit rate of the update leg, which updates
	// Updates page rows between its rounds and invalidates the cache.
	UpdateHitRate float64
	Updates       int
	// Stale counts joined payloads served, in either leg, that differ
	// from the page row's current values: a sound cache serves none.
	Stale int64
}

// Saved returns the fraction of dimension lookups eliminated.
func (r JoinCacheResult) Saved() float64 {
	return 1 - float64(r.DimLookupsCached)/float64(max(1, r.Config.Queries))
}

// joinPayload is the joined payload: page_latest (8B) + page_len (4B).
func joinPayload(latest, length tuple.Value) []byte {
	payload := make([]byte, 12)
	binary.LittleEndian.PutUint64(payload, uint64(latest.Int))
	binary.LittleEndian.PutUint32(payload[8:], uint32(length.Int))
	return payload
}

// RunJoinCache replays a zipfian join workload — "fetch revision X and
// its page's title-length and latest pointer" — probing the revision
// page's join cache first, then replays it again through a second cache
// while page rows are updated between rounds of queries.
func RunJoinCache(cfg JoinCacheConfig) (_ JoinCacheResult, err error) {
	res := JoinCacheResult{Config: cfg, Fixture: FixtureConfig{Shape: PageShape, Pages: cfg.Pages,
		RevisionsPerPage: cfg.RevisionsPerPage, Seed: cfg.Seed, PageSize: 4096, PoolPages: 1 << 14}}
	pages, err := NewFixture(res.Fixture)
	if err != nil {
		return JoinCacheResult{}, err
	}
	defer closeEngine(pages.Engine, &err)
	// pageRows[fk-1] is page row fk as the table holds it now, at
	// pageRIDs[fk-1].
	pageTable, pageRows, pageRIDs := pages.Table, pages.Rows, pages.RIDs
	pageByID, err := pageTable.CreateIndex("pk", []string{"page_id"})
	if err != nil {
		return JoinCacheResult{}, err
	}
	latest, length := wiki.PageSchema().Index("page_latest"), wiki.PageSchema().Index("page_len")
	// The revision heap keeps a 75% fill factor — reserved update
	// headroom, the same slack the index cache exploits — which the
	// join cache recycles. Its rows continue the page rows' stream.
	revs, err := pages.Add(RevisionShape, core.WithHeapFillFactor(0.75))
	if err != nil {
		return JoinCacheResult{}, err
	}
	revTable, rids := revs.Table, revs.RIDs

	zipf := workload.NewZipf(workload.NewRand(cfg.Seed+9), len(rids), 0.8)
	trace := make([]int, cfg.Queries)
	for i := range trace {
		trace[i] = zipf.Next()
	}

	// A leg replays the trace through a fresh cache, probing the revision
	// page's free space first and checking every payload served against
	// the page row. With updates, between two rounds a share of the page
	// rows change and the cache is invalidated.
	rng := workload.NewRand(cfg.Seed + 17)
	per := max(1, len(trace)/joinRounds)
	leg := func(share float64) (*joincache.Cache, error) {
		jc, err := joincache.New(12, cfg.Seed)
		if err != nil {
			return nil, err
		}
		for at, ri := range trace {
			if at > 0 && at%per == 0 && share > 0 {
				for range int(share * float64(cfg.Pages)) {
					i := rng.Intn(cfg.Pages)
					row := pages.Gen.PageRow(i, pageRows[i][latest].Int+int64(len(rids))) // a new page_len too
					if pageRIDs[i], err = pageTable.Update(pageRIDs[i], row); err != nil {
						return nil, err
					}
					pageRows[i] = row
					res.Updates++
				}
				jc.Invalidate()
			}
			rid, fk := rids[ri], uint64(revs.Rows[ri][1].Int)
			err := revTable.Heap().VisitPage(rid.Page, func(sp *storage.SlottedPage, excl bool) bool {
				usable, repaired := jc.Prepare(sp, rid.Page, excl)
				if !usable {
					return false
				}
				if payload, ok := jc.Lookup(sp, fk); ok {
					if row := pageRows[fk-1]; !bytes.Equal(payload, joinPayload(row[latest], row[length])) {
						res.Stale++
					}
					return repaired
				}
				// Miss: resolve through the dimension index and fill.
				row, lr, lerr := pageByID.Lookup([]string{"page_latest", "page_len"}, tuple.Int64(int64(fk)))
				if lerr == nil && lr.Found {
					jc.Insert(sp, excl, fk, joinPayload(row[0], row[1]))
				}
				return repaired
			})
			if err != nil {
				return nil, err
			}
		}
		return jc, nil
	}
	ro, err := leg(0)
	if err != nil {
		return JoinCacheResult{}, err
	}
	// Every miss resolved the join through the dimension index.
	res.HitRate, res.DimLookupsCached = ro.HitRate(), ro.Misses.Load()
	upd, err := leg(joinUpdateShare)
	if err != nil {
		return JoinCacheResult{}, err
	}
	res.UpdateHitRate = upd.HitRate()
	return res, nil
}

// Print renders the comparison.
func (r JoinCacheResult) Print(w io.Writer) {
	fmt.Fprintf(w, "§2.2 extension: FK-join results cached in data pages' free space\n")
	fmt.Fprintf(w, "%v; then its revision table, ~%d revisions per article, heap fill 0.75\n",
		r.Fixture, r.Config.RevisionsPerPage)
	fmt.Fprintf(w, "%d join queries (revision → page), zipf(0.8) over %d revisions\n",
		r.Config.Queries, r.Config.Pages*r.Config.RevisionsPerPage)
	fmt.Fprintf(w, "join-cache hit rate:          %.1f%%\n", 100*r.HitRate)
	fmt.Fprintf(w, "dimension index lookups:      %d → %d (%.1f%% eliminated)\n",
		r.Config.Queries, r.DimLookupsCached, 100*r.Saved())
	fmt.Fprintf(w, "with updates (%d rounds, %d page rows updated): hit rate %.1f%%\n",
		joinRounds, r.Updates, 100*r.UpdateHitRate)
	fmt.Fprintf(w, "stale joined rows served:     %d\n", r.Stale)
}
