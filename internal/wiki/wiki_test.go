package wiki

import (
	"testing"

	"repro/internal/tuple"
)

func TestGeneratorDeterminism(t *testing.T) {
	cfg := Config{Pages: 100, RevisionsPerPage: 5, Alpha: 0.5, Seed: 7}
	r1, l1 := NewGenerator(cfg).Revisions()
	r2, l2 := NewGenerator(cfg).Revisions()
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if !r1[i].Row.Equal(r2[i].Row) {
			t.Fatalf("row %d differs between runs", i)
		}
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("latest index %d differs", i)
		}
	}
}

func TestRevisionsInvariants(t *testing.T) {
	cfg := Config{Pages: 200, RevisionsPerPage: 8, Alpha: 0.5, Seed: 3}
	revs, latest := NewGenerator(cfg).Revisions()
	if len(latest) != cfg.Pages {
		t.Fatalf("latest has %d entries, want %d", len(latest), cfg.Pages)
	}
	// Exactly one Latest per page, and latestOfPage points at it.
	latestCount := map[int]int{}
	for i, r := range revs {
		if r.Latest {
			latestCount[r.PageIdx]++
			if latest[r.PageIdx] != i {
				t.Fatalf("latestOfPage[%d] = %d, but revision %d is marked latest", r.PageIdx, latest[r.PageIdx], i)
			}
		}
		if r.Row[0].Int != int64(i+1) {
			t.Fatalf("rev_id not sequential at %d", i)
		}
	}
	for p := 0; p < cfg.Pages; p++ {
		if latestCount[p] != 1 {
			t.Fatalf("page %d has %d latest revisions", p, latestCount[p])
		}
	}
	// A page's latest revision is its last in table order.
	lastSeen := map[int]int{}
	for i, r := range revs {
		lastSeen[r.PageIdx] = i
	}
	for p, idx := range latest {
		if lastSeen[p] != idx {
			t.Fatalf("page %d: latest at %d but last occurrence at %d", p, idx, lastSeen[p])
		}
	}
	// Hot fraction ≈ pages/revisions (the paper's ~5% for mean 20).
	frac := float64(cfg.Pages) / float64(len(revs))
	if frac < 0.05 || frac > 0.30 {
		t.Errorf("hot fraction %.3f implausible for mean history %d", frac, cfg.RevisionsPerPage)
	}
}

func TestRevisionsScattered(t *testing.T) {
	cfg := Config{Pages: 500, RevisionsPerPage: 20, Alpha: 0.5, Seed: 5}
	revs, latest := NewGenerator(cfg).Revisions()
	// Hot tuples must be spread out, not bunched at the end: measure the
	// fraction of hot tuples in the last 10% of the table — if histories
	// were contiguous it would be ~100%; interleaved it is ~10-40%
	// (biased up because the last revision of long histories drifts
	// late).
	tail := len(revs) * 9 / 10
	inTail := 0
	for _, idx := range latest {
		if idx >= tail {
			inTail++
		}
	}
	frac := float64(inTail) / float64(len(latest))
	if frac > 0.6 {
		t.Errorf("%.0f%% of hot tuples in the last 10%% of the table; not scattered", frac*100)
	}
}

func TestRowsMatchSchemas(t *testing.T) {
	g := NewGenerator(Config{Pages: 50, RevisionsPerPage: 3, Alpha: 0.5, Seed: 9})
	revs, _ := g.Revisions()
	for i, r := range revs[:10] {
		if _, err := tuple.Encode(RevisionSchema(), r.Row, nil); err != nil {
			t.Fatalf("revision row %d does not match schema: %v", i, err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := tuple.Encode(PageSchema(), g.PageRow(i, 1), nil); err != nil {
			t.Fatalf("page row %d: %v", i, err)
		}
		if _, err := tuple.Encode(CarTelSchema(), g.CarTelRow(i), nil); err != nil {
			t.Fatalf("cartel row %d: %v", i, err)
		}
		if _, err := tuple.Encode(TextSchema(), g.TextRow(i), nil); err != nil {
			t.Fatalf("text row %d: %v", i, err)
		}
	}
}

func TestTimestamp14Parseable(t *testing.T) {
	g := NewGenerator(Config{Pages: 20, RevisionsPerPage: 3, Alpha: 0.5, Seed: 11})
	revs, _ := g.Revisions()
	for _, r := range revs {
		ts := r.Row[6].Str
		if _, ok := tuple.ParseTS14(ts); !ok {
			t.Fatalf("generated timestamp %q not parseable", ts)
		}
	}
}

func TestTraces(t *testing.T) {
	cfg := Config{Pages: 300, RevisionsPerPage: 10, Alpha: 0.5, Seed: 13}
	g := NewGenerator(cfg)
	revs, latest := g.Revisions()
	trace := g.RevisionTrace(10000, 0.999, len(revs), latest)
	hotSet := map[int]bool{}
	for _, idx := range latest {
		hotSet[idx] = true
	}
	hotHits := 0
	for _, idx := range trace {
		if idx < 0 || idx >= len(revs) {
			t.Fatalf("trace index %d out of range", idx)
		}
		if hotSet[idx] {
			hotHits++
		}
	}
	frac := float64(hotHits) / float64(len(trace))
	if frac < 0.99 {
		t.Errorf("hot traffic fraction %.3f, want ≈0.999", frac)
	}
	pt := g.PageLookupTrace(1000)
	for _, p := range pt {
		if p < 0 || p >= cfg.Pages {
			t.Fatalf("page trace index %d out of range", p)
		}
	}
}

func TestCachedPageFieldsExist(t *testing.T) {
	s := PageSchema()
	for _, f := range CachedPageFields() {
		if s.Index(f) < 0 {
			t.Errorf("cached field %q not in page schema", f)
		}
	}
}
