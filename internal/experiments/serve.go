package experiments

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/tuple"
)

// ServeConfig parameterizes the network-serving experiment: concurrent
// client connections issue small write batches against an in-process
// nblb-server over a loopback socket, with the cross-connection write
// coalescer on versus off. The sweep measures what the coalescer is
// for — turning many tiny per-connection batches into shared
// leaf-grouped Apply calls under one WAL group commit — as ops/fsync
// and request latency versus offered load (connection count).
type ServeConfig struct {
	Conns      []int // connection counts to sweep (the offered-load axis)
	OpsPerConn int   // write requests each connection issues
	BatchOps   int   // rows per request (1 = the coalescer's worst-case diet)
	ValueBytes int   // payload string size per row
	Seed       int64
}

// DefaultServeConfig sweeps 1..64 connections issuing one-row batches:
// the shape where per-request WAL commits are most expensive and
// cross-connection coalescing has the most to reclaim.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Conns:      []int{1, 4, 16, 64},
		OpsPerConn: 400,
		BatchOps:   1,
		ValueBytes: 32,
		Seed:       1,
	}
}

// serveReps is how often each cell runs. benchgate compares the two
// sides of a cell with each other, and at one connection they are the
// same code path: a sandbox's fsync latency drifts by more than they
// differ (single runs: 0.80–1.19×). So the sides alternate, rep by rep,
// and each keeps its median run.
const serveReps = 3

// ServePoint is one (connection count, coalescer setting) cell: of its
// serveReps runs, the one with the median throughput.
type ServePoint struct {
	Conns       int     `json:"conns"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Micros   float64 `json:"p50_micros"`
	P99Micros   float64 `json:"p99_micros"`
	OpsPerFsync float64 `json:"ops_per_fsync"` // rows made durable per WAL fsync
	OpsPerCycle float64 `json:"ops_per_cycle"` // rows per coalescer cycle (0 when disabled)
}

// ServeResult is the experiment summary, serialized to
// BENCH_serve.json. Coalesced and Direct hold the same sweep with the
// cross-connection coalescer on and off; everything else describes the
// workload shape so the gate can tell a config change from a
// regression.
type ServeResult struct {
	Env
	OpsPerConn  int          `json:"ops_per_conn"`
	BatchOps    int          `json:"batch_ops"`
	ValueBytes  int          `json:"value_bytes"`
	Coalesced   []ServePoint `json:"coalesced"`
	Direct      []ServePoint `json:"direct"`
	ElapsedSecs float64      `json:"elapsed_secs"`
}

// RunServe runs the serving sweep. Every point gets a fresh
// WAL-backed engine (group commit) served over a loopback listener and
// driven by the real client package, so the measured path is the one a
// remote caller pays: frame codec, socket, pipelining, coalescer,
// Table.Apply, WAL.
func RunServe(cfg ServeConfig) (ServeResult, error) {
	res := ServeResult{
		Env:        currentEnv(),
		OpsPerConn: cfg.OpsPerConn,
		BatchOps:   cfg.BatchOps,
		ValueBytes: cfg.ValueBytes,
	}
	start := time.Now()
	for _, conns := range cfg.Conns {
		var sides [2][]ServePoint // coalesced, direct
		for rep := 0; rep < serveReps; rep++ {
			for side, coalesce := range []bool{true, false} {
				p, err := runServePoint(cfg, conns, coalesce)
				if err != nil {
					return res, fmt.Errorf("serve conns=%d coalesce=%v: %w", conns, coalesce, err)
				}
				sides[side] = append(sides[side], p)
			}
		}
		for _, ps := range sides {
			sort.Slice(ps, func(i, j int) bool { return ps[i].OpsPerSec < ps[j].OpsPerSec })
		}
		res.Coalesced = append(res.Coalesced, sides[0][serveReps/2])
		res.Direct = append(res.Direct, sides[1][serveReps/2])
	}
	res.ElapsedSecs = time.Since(start).Seconds()
	return res, nil
}

func runServePoint(cfg ServeConfig, conns int, coalesce bool) (_ ServePoint, err error) {
	p := ServePoint{Conns: conns}
	dir, err := os.MkdirTemp("", "nblb-serve-bench")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)

	eng, err := core.NewEngine(core.Options{Path: filepath.Join(dir, "db")},
		core.WithWAL(), core.WithSyncPolicy(core.SyncGroupCommit))
	if err != nil {
		return p, err
	}
	defer closeEngine(eng, &err)
	if _, err := benchServeTable(eng); err != nil {
		return p, err
	}

	srv, err := server.New(server.Config{Engine: eng, NoCoalesce: !coalesce})
	if err != nil {
		return p, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return p, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		srv.Shutdown(ctx)
		cancel()
		<-serveDone
	}()
	addr := l.Addr().String()

	payload := string(make([]byte, cfg.ValueBytes))
	walBefore := eng.WALStats()
	statsBefore := srv.Stats()

	lats := make([][]time.Duration, conns)
	elapsed, err := runWorkers(conns, func(w int) (err error) {
		cl, err := client.Dial(addr, client.WithPoolSize(1))
		if err != nil {
			return err
		}
		defer func() {
			if cerr := cl.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		lat := make([]time.Duration, 0, cfg.OpsPerConn)
		base := int64(w) * int64(cfg.OpsPerConn) * int64(cfg.BatchOps)
		var b client.Batch
		for i := 0; i < cfg.OpsPerConn; i++ {
			b.Reset()
			for j := 0; j < cfg.BatchOps; j++ {
				b.Insert(client.Row{
					client.Int64(base + int64(i*cfg.BatchOps+j)),
					client.String(payload),
				})
			}
			t0 := time.Now()
			resp, err := cl.Apply("bench", &b)
			lat = append(lat, time.Since(t0))
			if err != nil {
				return err
			}
			if e := firstOpErr(resp); e != "" {
				return fmt.Errorf("op error: %s", e)
			}
		}
		lats[w] = lat
		return nil
	})
	if err != nil {
		return p, err
	}

	walAfter := eng.WALStats()
	statsAfter := srv.Stats()
	totalOps := float64(conns * cfg.OpsPerConn * cfg.BatchOps)
	p.OpsPerSec = totalOps / elapsed.Seconds()
	if syncs := walAfter.Syncs - walBefore.Syncs; syncs > 0 {
		p.OpsPerFsync = totalOps / float64(syncs)
	}
	if cycles := statsAfter.CoalescedCycles - statsBefore.CoalescedCycles; cycles > 0 {
		p.OpsPerCycle = float64(statsAfter.CoalescedOps-statsBefore.CoalescedOps) / float64(cycles)
	}
	all := make([]time.Duration, 0, conns*cfg.OpsPerConn)
	for _, lat := range lats {
		all = append(all, lat...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p.P50Micros = durMicros(percentileDur(all, 0.50))
	p.P99Micros = durMicros(percentileDur(all, 0.99))
	return p, nil
}

// benchServeTable creates the sweep's table: (id int64 unique, val
// string), the minimal shape that exercises heap insert + unique-index
// maintenance per row.
func benchServeTable(eng *core.Engine) (*core.Table, error) {
	schema, err := tuple.NewSchema(
		tuple.Field{Name: "id", Kind: tuple.KindInt64},
		tuple.Field{Name: "val", Kind: tuple.KindString},
	)
	if err != nil {
		return nil, err
	}
	tb, err := eng.CreateTable("bench", schema)
	if err != nil {
		return nil, err
	}
	if _, err := tb.CreateIndex("by_id", []string{"id"}); err != nil {
		return nil, err
	}
	return tb, nil
}

func firstOpErr(resp client.ApplyResult) string {
	for _, e := range resp.OpErrs {
		if e != "" {
			return e
		}
	}
	return ""
}

func percentileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func durMicros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Print renders the sweep as a text table.
func (r ServeResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Network serving: %d-op batches per request, %d requests/conn, median of %d runs, GOMAXPROCS=%d on %d CPUs\n",
		r.BatchOps, r.OpsPerConn, serveReps, r.GOMAXPROCS, r.NumCPU)
	fmt.Fprintf(w, "%-6s | %-36s | %-36s\n", "", "coalesced", "direct (coalescer off)")
	fmt.Fprintf(w, "%-6s | %10s %8s %8s %7s | %10s %8s %8s %7s\n",
		"conns", "ops/s", "p50µs", "p99µs", "ops/fs", "ops/s", "p50µs", "p99µs", "ops/fs")
	for i := range r.Coalesced {
		c := r.Coalesced[i]
		var d ServePoint
		if i < len(r.Direct) {
			d = r.Direct[i]
		}
		fmt.Fprintf(w, "%-6d | %10.0f %8.0f %8.0f %7.1f | %10.0f %8.0f %8.0f %7.1f\n",
			c.Conns, c.OpsPerSec, c.P50Micros, c.P99Micros, c.OpsPerFsync,
			d.OpsPerSec, d.P50Micros, d.P99Micros, d.OpsPerFsync)
	}
}
