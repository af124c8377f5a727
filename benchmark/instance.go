package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/workload"
)

// config is what a run needs besides the workload: sizes (full or
// -quick), the seed and where files go.
type config struct {
	seed     int64
	seconds  float64
	rows     int
	quick    bool
	tmpRoot  string // data directories are created under it and removed on exit
	traceDir string
	setups   int // set-ups per measured run; setup_s is their median
	replay   int // ops of the embedded replay
}

// replayBudget caps the embedded replay's wall time at a quarter of
// the measured phase.
func (c config) replayBudget() time.Duration {
	return time.Duration(c.seconds * float64(time.Second) / 4)
}

// instance is one loaded, reopened, served engine with its two
// connected clients.
type instance struct {
	spec spec
	dir  string
	eng  *core.Engine
	tbl  *core.Table
	ix   *core.Index
	srv  *server.Server
	done chan error // Serve's return

	clients   []*client.Client
	workers   []*worker
	streams   [][]op
	m         *model
	poolPages int
	heapPages int
	idxPages  int
}

func (in *instance) dbPath() string { return filepath.Join(in.dir, "db") }

// engineOptions are the serving engine's options: file-backed, WAL on
// (the only reopenable form of the engine; read workloads never
// append to it), group commit with real fsync.
func (in *instance) engineOptions(traced bool) core.Options {
	return core.Options{
		Path:            in.dbPath(),
		BufferPoolPages: in.poolPages,
		CountIO:         traced,
		WAL:             true,
		SyncPolicy:      core.SyncGroupCommit,
		CheckpointBytes: in.spec.checkpointBytes,
	}
}

// load builds the table on a fresh engine: rows 0..rows-1 in a
// shuffled key order, loadBatch rows per Apply, then a checkpoint and
// a clean close. The order is the same for every seed: the table is
// the fixture, the seed varies the op streams, and the pages the load
// leaves (space_amp, leaf fill, pool sizes) do not move between seeds. The load engine syncs nothing per batch (one
// checkpoint makes it all durable) and its pool holds every page,
// which the WAL engine's no-steal policy needs between checkpoints.
func (in *instance) load(cfg config) error {
	eng, err := core.NewEngine(core.Options{
		Path:            in.dbPath(),
		BufferPoolPages: cfg.rows/16 + 1024,
		WAL:             true,
		SyncPolicy:      core.SyncNone,
		CheckpointBytes: 1 << 40,
	})
	if err != nil {
		return err
	}
	tbl, err := eng.CreateTable(tableName, itemsSchema())
	if err != nil {
		eng.Close()
		return err
	}
	ix, err := tbl.CreateIndex(indexName, []string{"id"}, core.WithCache(cachedFields...), core.WithCacheSeed(cfg.seed))
	if err != nil {
		eng.Close()
		return err
	}
	order := workload.Shuffle(workload.NewRand(loadOrderSeed), cfg.rows)
	var b core.Batch
	for at := 0; at < len(order); at += loadBatch {
		ids := order[at:min(at+loadBatch, len(order))]
		b.Reset()
		for _, id := range ids {
			b.Insert(rowFor(int64(id), 0))
		}
		res, err := tbl.Apply(&b, core.WithResultRIDs())
		if err != nil {
			eng.Close()
			return fmt.Errorf("load: %w", err)
		}
		for i, id := range ids {
			in.m.rid[id], in.m.alive[id] = res.RIDs[i].Pack(), true
		}
	}
	if err := eng.Checkpoint(); err != nil {
		eng.Close()
		return err
	}
	hs, err := tbl.Heap().Stats()
	if err != nil {
		eng.Close()
		return err
	}
	ts, err := ix.Tree().Stats()
	if err != nil {
		eng.Close()
		return err
	}
	in.heapPages, in.idxPages = hs.Pages, ts.Pages
	return eng.Close()
}

// open reopens the loaded files with the workload's pool size, starts
// the server on a loopback port the kernel picks, and connects one
// single-connection client per worker.
func (in *instance) open(traced bool) error {
	eng, err := core.NewEngine(in.engineOptions(traced))
	if err != nil {
		return err
	}
	in.eng = eng
	if in.tbl, err = eng.Table(tableName); err != nil {
		return err
	}
	if in.ix, err = in.tbl.Index(indexName); err != nil {
		return err
	}
	if in.srv, err = server.New(server.Config{Engine: eng}); err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.done = make(chan error, 1)
	go func() { in.done <- in.srv.Serve(l) }()
	for range connections {
		c, err := client.Dial(l.Addr().String(), client.WithPoolSize(1))
		if err != nil {
			return err
		}
		in.clients = append(in.clients, c)
	}
	return nil
}

// close stops clients, server and engine and removes the data
// directory. It is safe on a half-built instance.
func (in *instance) close() error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for _, c := range in.clients {
		c.Close()
	}
	if in.srv != nil && in.done != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(in.srv.Shutdown(ctx))
		cancel()
		keep(<-in.done)
	}
	if in.eng != nil {
		keep(in.eng.Close())
	}
	keep(os.RemoveAll(in.dir))
	return first
}

// setupTimes splits one set-up.
type setupTimes struct {
	load, reopen, warm time.Duration
}

func (t setupTimes) total() time.Duration { return t.load + t.reopen + t.warm }

// setUp runs one complete set-up: load + checkpoint + close, reopen +
// server start + connect, fixed-count warm-up. The op streams are
// inputs, generated before and not part of it.
func setUp(s spec, cfg config, streams [][]op, traced bool) (*instance, setupTimes, error) {
	var times setupTimes
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, times, err
	}
	dir, err := os.MkdirTemp(cfg.tmpRoot, "data-")
	if err != nil {
		return nil, times, err
	}
	capacity := cfg.rows
	if s.shares[opInsert] > 0 {
		capacity += connections * s.streamLen
	}
	in := &instance{spec: s, dir: dir, streams: streams, m: newModel(capacity)}
	fail := func(err error) (*instance, setupTimes, error) {
		in.close()
		return nil, times, fmt.Errorf("%s: set-up: %w", s.name, err)
	}

	t0 := time.Now()
	if err := in.load(cfg); err != nil {
		return fail(err)
	}
	times.load = time.Since(t0)

	t0 = time.Now()
	in.poolPages = s.pool(in.heapPages, in.idxPages)
	if s.spill && in.heapPages < 3*in.poolPages {
		return fail(fmt.Errorf("heap has %d pages, want at least 3 x pool (%d)", in.heapPages, in.poolPages))
	}
	if !s.spill && in.poolPages < in.heapPages+in.idxPages {
		return fail(fmt.Errorf("pool of %d pages does not hold heap %d + index %d", in.poolPages, in.heapPages, in.idxPages))
	}
	if err := in.open(traced); err != nil {
		return fail(err)
	}
	times.reopen = time.Since(t0)

	t0 = time.Now()
	for conn, c := range in.clients {
		in.workers = append(in.workers, newWorker(conn, clientBackend{c}, in.m, int64(cfg.rows), &clientSpan))
	}
	warm := s.warmOps
	if cfg.quick {
		warm /= 20
	}
	p := runPhase(in.workers, streams, warm/connections, 0)
	if p.failed > 0 {
		return fail(fmt.Errorf("warm-up: %d of %d ops failed: %w", p.failed, p.attempted, firstError(in.workers)))
	}
	times.warm = time.Since(t0)
	return in, times, nil
}
