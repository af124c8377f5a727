package experiments

import (
	"fmt"
	"io"

	"repro/internal/idxcache"
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
	Rows   []AblatePlacementRow
}

// RunAblatePlacement compares swap-toward-center against no-promotion
// random placement (A1), and sweeps the bucket size N (A3). The paper's
// design claim is that swapping matters specifically under shrink —
// hot entries must migrate inward before the periphery is overwritten.
func RunAblatePlacement(cfg AblatePlacementConfig) (AblatePlacementResult, error) {
	res := AblatePlacementResult{Config: cfg}
	capacity := cfg.Items * cfg.SizePct / 100
	run := func(bucketN int, noPromote, shrink bool) (float64, error) {
		zipf := workload.NewZipf(workload.NewRand(cfg.Seed+3), cfg.Items, cfg.Alpha)
		sim, err := idxcache.NewSim(workload.NewRand(cfg.Seed+11), capacity, bucketN)
		if err != nil {
			return 0, err
		}
		sim.NoPromote = noPromote
		// Warm phase at constant capacity, so the measured phase starts
		// from the policy's steady-state layout (promotion matters when
		// the periphery is about to be overwritten, not during fill).
		for i := 0; i < cfg.Lookups; i++ {
			sim.Lookup(zipf.Next())
		}
		sim.ResetStats()
		shrinkTotal := capacity / 2
		shrinkEvery := 0
		if shrink && shrinkTotal > 0 {
			shrinkEvery = cfg.Lookups / shrinkTotal
			if shrinkEvery == 0 {
				shrinkEvery = 1
			}
		}
		for i := 0; i < cfg.Lookups; i++ {
			sim.Lookup(zipf.Next())
			if shrinkEvery > 0 && i%shrinkEvery == shrinkEvery-1 && sim.Capacity() > capacity-shrinkTotal {
				sim.Shrink(1)
			}
		}
		return sim.HitRate(), nil
	}
	// A1: policy comparison at the default bucket size.
	for _, p := range []struct {
		name      string
		noPromote bool
	}{{"swap-toward-center", false}, {"no-promotion", true}} {
		steady, err := run(4, p.noPromote, false)
		if err != nil {
			return AblatePlacementResult{}, err
		}
		shrunk, err := run(4, p.noPromote, true)
		if err != nil {
			return AblatePlacementResult{}, err
		}
		res.Rows = append(res.Rows, AblatePlacementRow{
			Policy: p.name, BucketN: 4, HitSteady: steady, HitShrink: shrunk,
		})
	}
	// A3: bucket-size sweep with swapping on.
	for _, n := range cfg.BucketNs {
		steady, err := run(n, false, false)
		if err != nil {
			return AblatePlacementResult{}, err
		}
		shrunk, err := run(n, false, true)
		if err != nil {
			return AblatePlacementResult{}, err
		}
		res.Rows = append(res.Rows, AblatePlacementRow{
			Policy: "swap", BucketN: n, HitSteady: steady, HitShrink: shrunk,
		})
	}
	return res, nil
}

// Print renders the sweep.
func (r AblatePlacementResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation A1/A3: cache placement policy and bucket size (cache=%d%% of %d items)\n",
		r.Config.SizePct, r.Config.Items)
	fmt.Fprintf(w, "%-20s %8s %10s %10s\n", "policy", "bucketN", "steady", "shrink")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-20s %8d %10.3f %10.3f\n", row.Policy, row.BucketN, row.HitSteady, row.HitShrink)
	}
}
