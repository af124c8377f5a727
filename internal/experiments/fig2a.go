// Package experiments contains the harnesses that regenerate every
// figure and in-text quantitative analysis of the paper. Each Run*
// function returns a structured result with a Print method producing
// the rows/series the paper reports; cmd/nblb-bench drives them and
// bench_test.go runs reduced versions under testing.B.
package experiments

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/idxcache"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Fig2aConfig parameterizes Figure 2(a): hit rate vs cache size under
// the Swap and Shrink regimes.
type Fig2aConfig struct {
	Items   int     // distinct tuples (the table)
	Lookups int     // accesses per point (paper: 100k)
	Alpha   float64 // zipf skew (paper: 0.5)
	BucketN int     // slots per bucket
	Seed    int64
	// Sizes are the cache sizes as a percentage of Items. Defaults to
	// 5..100 step 5.
	Sizes []int
}

// DefaultFig2aConfig mirrors the paper's parameters at laptop scale.
func DefaultFig2aConfig() Fig2aConfig {
	return Fig2aConfig{Items: 10000, Lookups: 100000, Alpha: 0.5, BucketN: 4, Seed: 1}
}

// Fig2aPoint is one x position of the figure.
type Fig2aPoint struct {
	SizePct int // cache size asked for, as % of items
	// Fill is the fill factor the leaves were loaded at; 0 when no fill
	// in [legMinFill, legMaxFill] leaves SizePct's room, and the point
	// has no curve values.
	Fill   float64
	Leaves int
	Room   int     // whole cache slots the loaded leaves offer
	Swap   float64 // read-only workload hit rate
	Shrink float64 // hit rate while key inserts take half the room
	Left   int     // room left when Shrink's inserts end
	Ideal  float64 // clairvoyant top-Room hit rate (upper bound)
}

// Fig2aResult is the full curve set.
type Fig2aResult struct {
	Config Fig2aConfig
	Points []Fig2aPoint
}

// RunFig2a replays one zipfian trace per point on a fresh placeLeg
// loaded to that point's room: Swap keeps the keys as loaded; Shrink
// inserts keys between the loaded ones at a constant rate until half
// the room is gone, so real key growth takes the cache's space.
func RunFig2a(cfg Fig2aConfig) (Fig2aResult, error) {
	if len(cfg.Sizes) == 0 {
		for p := 5; p <= 100; p += 5 {
			cfg.Sizes = append(cfg.Sizes, p)
		}
	}
	res := Fig2aResult{Config: cfg}
	probe := workload.NewZipf(workload.NewRand(cfg.Seed), cfg.Items, cfg.Alpha) // the exact distribution, for Ideal
	run := func(fill float64, shrink bool) (*placeLeg, float64, error) {
		zipf := workload.NewZipf(workload.NewRand(cfg.Seed+7), cfg.Items, cfg.Alpha)
		return runLeg(cfg.Items, fill, cfg.BucketN, cfg.Seed, zipf, 0, cfg.Lookups, shrink)
	}
	for _, pct := range cfg.Sizes {
		p := Fig2aPoint{SizePct: pct}
		var g *placeLeg
		fill, err := fillFor(cfg.Items, max(1, cfg.Items*pct/100))
		if err == nil && fill > 0 {
			if g, p.Swap, err = run(fill, false); err == nil {
				p.Fill, p.Leaves, p.Room = fill, g.leaves, g.loaded
				for i := range min(p.Room, cfg.Items) {
					p.Ideal += probe.Probability(i)
				}
				g, p.Shrink, err = run(fill, true)
			}
		}
		if err != nil {
			return Fig2aResult{}, err
		}
		if g != nil {
			p.Left = g.room
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// Print renders the curves as aligned columns, each at the room its
// leaves actually offered.
func (r Fig2aResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 2(a): hit rate vs cache size — zipf(α=%.2f), %d items, %d lookups\n",
		r.Config.Alpha, r.Config.Items, r.Config.Lookups)
	fmt.Fprintf(w, "B+tree of 8-byte keys on %d B pages, loaded at the fill whose room is each size; idxcache.Cache, %d-byte payloads, bucketN %d\n",
		legPageSize, legPayload, r.Config.BucketN)
	fmt.Fprintf(w, "%8s %8s %6s %7s %8s %8s %8s %8s\n", "size%", "room%", "fill", "leaves", "Swap", "Shrink", "left%", "Ideal")
	for _, p := range r.Points {
		if p.Fill == 0 {
			fmt.Fprintf(w, "%8d   unreachable at fill %.2f–%.2f\n", p.SizePct, legMinFill, legMaxFill)
			continue
		}
		fmt.Fprintf(w, "%8d %8.1f %6.3f %7d %8.3f %8.3f %8.1f %8.3f\n", p.SizePct, pctOf(p.Room, r.Config.Items),
			p.Fill, p.Leaves, p.Swap, p.Shrink, pctOf(p.Left, r.Config.Items), p.Ideal)
	}
}

func pctOf(n, of int) float64 { return 100 * float64(n) / float64(of) }

// --- the leg fig2a and ablate-place replay --------------------------------

const (
	// legPageSize is small so that even 2,000 items spread over enough
	// leaves that one leaf's remainder does not decide a point.
	legPageSize = 1024
	legPayload  = 14
	// legGap spaces the loaded keys: position p loads key p*legGap, and
	// Shrink inserts the legGap-1 keys between two loaded ones.
	legGap = 4
	// Above legMaxFill a leaf's slack is too thin for Shrink's share of
	// inserts and it splits, and a split adds room.
	legMinFill, legMaxFill = 0.05, 0.95
	// noPromotion is a bucket size no leaf's slot count reaches (a slot
	// is at least a byte): every slot is in bucket 0, so a hit is never
	// swapped and a full leaf evicts any slot.
	noPromotion = legPageSize
)

// placeLeg is §2.1.1's placement policy on the layers that serve it: a
// B+tree bulk-loaded at a fill factor on an in-memory buffer.Pool, and
// one idxcache.Cache over its leaves.
type placeLeg struct {
	pool   *buffer.Pool
	tree   *btree.Tree
	cache  *idxcache.Cache
	items  int
	pos    []int // zipf rank → key position: hot items spread over the leaves
	key    [8]byte
	loaded int // whole slots the leaves offered when loaded
	room   int // whole slots they offer now, kept by grow
	leaves int
	grown  int // keys grow has inserted
	stride int
	// ridBase makes every RID, loaded or grown, take the same bytes: a
	// wider one would re-encode its whole leaf and split it.
	ridBase uint64
}

func (g *placeLeg) keyAt(k int) []byte {
	binary.BigEndian.PutUint64(g.key[:], uint64(k))
	return g.key[:]
}

// loadLeg bulk-loads items keys at fill and counts the room they leave.
func loadLeg(items int, fill float64, bucketN int, seed int64) (*placeLeg, error) {
	disk, err := storage.NewMemDisk(legPageSize)
	if err != nil {
		return nil, err
	}
	pool, err := buffer.NewPool(disk, items) // more pages than any fill ≥ legMinFill needs
	if err != nil {
		return nil, err
	}
	g := &placeLeg{pool: pool, items: items, ridBase: 1, pos: workload.Shuffle(workload.NewRand(seed+5), items)}
	for g.ridBase*255 < uint64(legGap*items) {
		g.ridBase *= 256
	}
	// A stride coprime with the gap count, near its golden section,
	// visits every gap once, spread evenly over the keys and the leaves:
	// in random order some leaf takes more than its share and splits.
	gaps := items * (legGap - 1)
	g.stride = gaps*618/1000 + 1
	for gcd(g.stride, gaps) != 1 {
		g.stride++
	}
	p := 0
	g.tree, err = btree.BulkLoad(pool, fill, func() ([]byte, uint64, bool) {
		if p == items {
			return nil, 0, false
		}
		p++
		return g.keyAt((p - 1) * legGap), g.ridBase + uint64(p), true
	})
	if err == nil {
		g.cache, err = idxcache.New(idxcache.Config{PayloadSize: legPayload, BucketN: bucketN, Seed: seed + 13})
	}
	var r CacheRoom
	if err == nil {
		r, err = measureRoom(g.tree, g.cache)
	}
	g.loaded, g.room, g.leaves = int(r.Slots), int(r.Slots), r.LeafPages
	if err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (g *placeLeg) close() { _ = g.pool.Close() }

// lookup visits item's leaf as the point read does: Prepare, then
// LookupInto, and on a miss Insert while the latch is exclusive.
func (g *placeLeg) lookup(item int, payload []byte) (hit bool, err error) {
	key := g.keyAt(g.pos[item] * legGap)
	err = g.tree.VisitLeaf(key, func(l *btree.Leaf) {
		if rid, found := l.Find(key); found && g.cache.Prepare(l) {
			if _, hit = g.cache.LookupInto(payload[:0], l, rid); !hit && l.Exclusive() {
				g.cache.Insert(l, rid, payload)
			}
		}
	})
	return hit, err
}

// grow inserts the next key between two loaded ones through Tree.Insert
// and takes the slots its leaf lost off the room.
func (g *placeLeg) grow() error {
	gaps := g.items * (legGap - 1)
	if g.grown == gaps {
		return fmt.Errorf("placement leg: every gap between %d keys is filled", g.items)
	}
	k := g.grown * g.stride % gaps
	g.grown++
	key := g.keyAt(k/(legGap-1)*legGap + k%(legGap-1) + 1)
	var before, after int
	err := g.tree.VisitLeaf(key, func(l *btree.Leaf) { before, _ = g.cache.SlotsIn(l) })
	if err == nil {
		_, err = g.tree.Insert(key, g.ridBase+uint64(g.items+g.grown))
	}
	if err == nil {
		err = g.tree.VisitLeaf(key, func(l *btree.Leaf) { after, _ = g.cache.SlotsIn(l) })
	}
	g.room -= before - after
	return err
}

// runLeg loads a fresh leg at fill and replays warm lookups and then n
// measured ones from zipf, returning the measured hit rate. With
// shrink, keys are inserted over the n at a constant rate until half
// the room is gone; a leaf split would add room, so it fails the run.
func runLeg(items int, fill float64, bucketN int, seed int64, zipf *workload.Zipf, warm, n int, shrink bool) (*placeLeg, float64, error) {
	g, err := loadLeg(items, fill, bucketN, seed)
	if err != nil {
		return nil, 0, err
	}
	defer g.close()
	payload, hits := make([]byte, legPayload), 0
	for i := -warm; i < n; i++ {
		hit, err := g.lookup(zipf.Next(), payload)
		if err != nil {
			return nil, 0, err
		}
		if hit && i >= 0 {
			hits++
		}
		for shrink && i >= 0 && g.loaded-g.room < g.loaded/2*(i+1)/n {
			if err := g.grow(); err != nil {
				return nil, 0, err
			}
		}
	}
	r, err := measureRoom(g.tree, g.cache)
	g.room = int(r.Slots)
	if err == nil && r.LeafPages != g.leaves {
		err = fmt.Errorf("placement leg: Shrink split leaves (%d → %d); a split adds room", g.leaves, r.LeafPages)
	}
	return g, float64(hits) / float64(max(n, 1)), err
}

// fillFor returns the highest fill factor whose leaves offer at least
// want slots, by bisection on the counted room over fills from
// legMaxFill down to legMinFill, or 0 when want lies outside what they
// reach: a size the leaves cannot offer is unreachable, never clamped.
func fillFor(items, want int) (float64, error) {
	const steps = 4096
	fill := func(i int) float64 { return legMaxFill - float64(i)*(legMaxFill-legMinFill)/steps }
	var err error
	room := func(i int) int {
		g, e := loadLeg(items, fill(i), 1, 0)
		if e != nil {
			err = e
			return want
		}
		g.close()
		return g.loaded
	}
	i := sort.Search(steps+1, func(i int) bool { return room(i) >= want })
	if err != nil || i > steps || i == 0 && room(0) > want {
		return 0, err
	}
	return fill(i), nil
}
