package experiments

import (
	"fmt"
	"io"

	"repro/internal/workload"
)

// --- A1/A3: placement-policy and bucket-size ablations -----------------

// AblatePlacementConfig parameterizes the placement ablation.
type AblatePlacementConfig struct {
	Items    int
	Lookups  int
	Alpha    float64
	SizePct  int // cache size as % of items
	Seed     int64
	BucketNs []int // bucket sizes to sweep (A3)
}

// DefaultAblatePlacementConfig uses Figure 2(a)'s setup at 25% size
// with a shrink phase, where placement policy matters most.
func DefaultAblatePlacementConfig() AblatePlacementConfig {
	return AblatePlacementConfig{
		Items: 10000, Lookups: 100000, Alpha: 0.5, SizePct: 25, Seed: 1,
		BucketNs: []int{1, 2, 4, 8, 16, 64},
	}
}

// AblatePlacementRow is one policy/bucket configuration's outcome.
type AblatePlacementRow struct {
	Policy    string
	BucketN   int
	HitSteady float64 // constant-capacity hit rate
	HitShrink float64 // hit rate while the cache halves
}

// AblatePlacementResult is the sweep.
type AblatePlacementResult struct {
	Config AblatePlacementConfig
	Fill   float64 // the fill factor giving SizePct its room
	Room   int     // whole cache slots the loaded leaves offer
	Rows   []AblatePlacementRow
}

// RunAblatePlacement compares swap-toward-center against no-promotion
// random placement (A1), and sweeps the bucket size N (A3), on
// Figure 2(a)'s placeLeg. The paper's design claim is that swapping
// matters specifically under shrink — hot entries must migrate inward
// before the periphery is overwritten.
func RunAblatePlacement(cfg AblatePlacementConfig) (AblatePlacementResult, error) {
	fill, err := fillFor(cfg.Items, max(1, cfg.Items*cfg.SizePct/100))
	if err != nil {
		return AblatePlacementResult{}, err
	}
	if fill == 0 {
		return AblatePlacementResult{}, fmt.Errorf("ablate-place: no fill in [%.2f, %.2f] leaves %d%% of %d items room",
			legMinFill, legMaxFill, cfg.SizePct, cfg.Items)
	}
	res := AblatePlacementResult{Config: cfg, Fill: fill}
	// A1: the policy at the default bucket size against no promotion.
	res.Rows = []AblatePlacementRow{{Policy: "swap-toward-center", BucketN: 4}, {Policy: "no-promotion", BucketN: noPromotion}}
	// A3: bucket-size sweep with swapping on.
	for _, n := range cfg.BucketNs {
		res.Rows = append(res.Rows, AblatePlacementRow{Policy: "swap", BucketN: n})
	}
	// Each run warms at constant room first, so the measured phase
	// starts from the policy's steady-state layout (promotion matters
	// when the periphery is about to be overwritten, not during fill).
	run := func(bucketN int, shrink bool) (*placeLeg, float64, error) {
		zipf := workload.NewZipf(workload.NewRand(cfg.Seed+3), cfg.Items, cfg.Alpha)
		return runLeg(cfg.Items, fill, bucketN, cfg.Seed, zipf, cfg.Lookups, cfg.Lookups, shrink)
	}
	for i := range res.Rows {
		r := &res.Rows[i]
		g, steady, err := run(r.BucketN, false)
		if err != nil {
			return AblatePlacementResult{}, err
		}
		_, shrunk, err := run(r.BucketN, true)
		if err != nil {
			return AblatePlacementResult{}, err
		}
		r.HitSteady, r.HitShrink, res.Room = steady, shrunk, g.loaded
	}
	return res, nil
}

// Print renders the sweep.
func (r AblatePlacementResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation A1/A3: cache placement policy and bucket size (cache=%d%% of %d items: room %.1f%% at fill %.3f)\n",
		r.Config.SizePct, r.Config.Items, pctOf(r.Room, r.Config.Items), r.Fill)
	fmt.Fprintf(w, "%-20s %8s %10s %10s\n", "policy", "bucketN", "steady", "shrink")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-20s %8d %10.3f %10.3f\n", row.Policy, row.BucketN, row.HitSteady, row.HitShrink)
	}
}
