package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/semid"
	"repro/internal/wiki"
	"repro/internal/workload"
)

// SemIDConfig parameterizes the Section 4.2 routing comparison.
type SemIDConfig struct {
	Tuples     int
	Partitions int
	Lookups    int
	Seed       int64
}

// DefaultSemIDConfig routes a million tuples across 64 partitions.
func DefaultSemIDConfig() SemIDConfig {
	return SemIDConfig{Tuples: 1_000_000, Partitions: 64, Lookups: 2_000_000, Seed: 1}
}

// SemIDResult compares the routing-table baseline against embedded IDs.
type SemIDResult struct {
	Config SemIDConfig
	// Memory footprint of each router.
	TableBytes, EmbeddedBytes int64
	// Measured routing latency.
	TableNsOp, EmbeddedNsOp float64
	// Reduction report on the revision schema.
	Reductions []semid.ReductionCheck
}

// RunSemID assigns each tuple a random partition, builds both routers,
// and measures route latency and memory. It also runs the ID-reduction
// analysis on the revision schema (rev_id is uniqueness-only; rev_text_id
// is derivable from rev_id in our generator).
func RunSemID(cfg SemIDConfig) (SemIDResult, error) {
	layout, err := semid.NewLayout(semidBits(cfg.Partitions))
	if err != nil {
		return SemIDResult{}, err
	}
	rng := workload.NewRand(cfg.Seed)
	table := semid.NewTableRouter()
	ids := make([]uint64, cfg.Tuples)
	for i := range ids {
		part := uint64(rng.Intn(cfg.Partitions))
		id, err := layout.Make(part, uint64(i))
		if err != nil {
			return SemIDResult{}, err
		}
		ids[i] = id
		table.Add(id, part)
	}
	embedded := semid.NewEmbeddedRouter(layout)

	// Verify agreement before timing.
	for _, id := range ids[:min(1000, len(ids))] {
		tp, err := table.Route(id)
		if err != nil {
			return SemIDResult{}, err
		}
		ep, _ := embedded.Route(id)
		if tp != ep {
			return SemIDResult{}, fmt.Errorf("experiments: routers disagree on id %d", id)
		}
	}

	res := SemIDResult{Config: cfg}
	res.TableBytes = table.MemoryBytes()
	res.EmbeddedBytes = embedded.MemoryBytes()

	probe := make([]uint64, cfg.Lookups)
	for i := range probe {
		probe[i] = ids[rng.Intn(len(ids))]
	}
	res.TableNsOp, err = timeRoutes(table, probe)
	if err != nil {
		return SemIDResult{}, err
	}
	res.EmbeddedNsOp, err = timeRoutes(embedded, probe)
	if err != nil {
		return SemIDResult{}, err
	}

	res.Reductions, err = semid.FindReducible(wiki.RevisionSchema(),
		[]string{"rev_id"},
		map[string]string{"rev_text_id": "rev_id"})
	if err != nil {
		return SemIDResult{}, err
	}
	return res, nil
}

func semidBits(partitions int) int {
	bits := 1
	for 1<<bits < partitions {
		bits++
	}
	return bits
}

func timeRoutes(r semid.Router, probe []uint64) (float64, error) {
	var sink uint64
	start := time.Now()
	for _, id := range probe {
		p, err := r.Route(id)
		if err != nil {
			return 0, err
		}
		sink ^= p
	}
	elapsed := time.Since(start)
	_ = sink
	return float64(elapsed.Nanoseconds()) / float64(len(probe)), nil
}

// Print renders the comparison.
func (r SemIDResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Section 4.2: semantic IDs — routing table vs embedded partition bits\n")
	fmt.Fprintf(w, "%d tuples, %d partitions, %d routed lookups\n",
		r.Config.Tuples, r.Config.Partitions, r.Config.Lookups)
	fmt.Fprintf(w, "%-22s %14s %12s\n", "router", "memory", "ns/route")
	fmt.Fprintf(w, "%-22s %14s %12.2f\n", "per-tuple table", fmtBytes(r.TableBytes), r.TableNsOp)
	fmt.Fprintf(w, "%-22s %14s %12.2f\n", "embedded in ID", fmtBytes(r.EmbeddedBytes), r.EmbeddedNsOp)
	if r.EmbeddedBytes > 0 {
		fmt.Fprintf(w, "memory ratio: %.0f× smaller; ", float64(r.TableBytes)/float64(r.EmbeddedBytes))
	}
	if r.EmbeddedNsOp > 0 {
		fmt.Fprintf(w, "latency ratio: %.1f× faster\n", r.TableNsOp/r.EmbeddedNsOp)
	}
	fmt.Fprintf(w, "\nID reduction candidates on the revision schema:\n")
	for _, red := range r.Reductions {
		fmt.Fprintf(w, "  %-14s save %3d bits/row — %s\n", red.Field, red.SavedBitsPerRow, red.Reason)
	}
}
