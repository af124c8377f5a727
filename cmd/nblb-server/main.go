// Command nblb-server serves an nblb database over the network: the
// pipelined binary protocol (internal/wire, spoken by package client)
// on -addr — the one data protocol — and an optional admin-only HTTP
// listener on -http (GET /v1/stats, POST /v1/checkpoint). Writes from
// every connection flow through the cross-connection coalescer, so many
// small client batches share leaf-grouped index runs and one WAL group
// commit.
//
// SIGINT/SIGTERM shut down gracefully: accepting stops, in-flight
// requests finish and their responses flush (which empties the
// coalescer: its cycles run on request handlers), and a final
// checkpoint lands every acked write in the data file before the
// process exits.
//
// Example:
//
//	nblb-server -db /var/lib/nblb/app.db -addr :4410 -http :8410
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	var (
		dbPath   = flag.String("db", "", "database file path (required; created if absent)")
		addr     = flag.String("addr", ":4410", "binary-protocol listen address")
		httpAddr = flag.String("http", "", "admin HTTP listen address: stats and checkpoint (empty = disabled)")
		noWAL    = flag.Bool("no-wal", false, "disable the write-ahead log (the catalog lives in the WAL manifest: nothing survives a restart)")
		syncMode = flag.String("sync", "group", "WAL sync policy: group, always, none")
		poolPgs  = flag.Int("pool", 0, "buffer pool size in pages (0 = default)")

		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget before connections are severed")
	)
	flag.Parse()
	if *dbPath == "" {
		fmt.Fprintln(os.Stderr, "nblb-server: -db is required")
		flag.Usage()
		os.Exit(2)
	}

	opts := core.Options{Path: *dbPath, BufferPoolPages: *poolPgs, WAL: !*noWAL}
	if opts.WAL {
		switch *syncMode {
		case "group":
			opts.SyncPolicy = core.SyncGroupCommit
		case "always":
			opts.SyncPolicy = core.SyncAlways
		case "none":
			opts.SyncPolicy = core.SyncNone
		default:
			log.Fatalf("nblb-server: unknown -sync %q (want group, always, none)", *syncMode)
		}
	}
	eng, err := core.NewEngine(opts)
	if err != nil {
		log.Fatalf("nblb-server: open %s: %v", *dbPath, err)
	}

	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		log.Fatalf("nblb-server: %v", err)
	}

	errc := make(chan error, 2)
	go func() {
		log.Printf("nblb-server: serving %s on %s", *dbPath, *addr)
		errc <- srv.ListenAndServe(*addr)
	}()
	if *httpAddr != "" {
		go func() {
			log.Printf("nblb-server: admin HTTP on %s", *httpAddr)
			errc <- listenHTTP(srv, *httpAddr)
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("nblb-server: %v: draining (budget %v)", sig, *drainTimeout)
	case err := <-errc:
		if err != nil {
			log.Printf("nblb-server: serve: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("nblb-server: shutdown: %v", err)
	}
	if err := eng.Close(); err != nil {
		log.Fatalf("nblb-server: close: %v", err)
	}
	log.Print("nblb-server: clean shutdown")
}

func listenHTTP(srv *server.Server, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return srv.ServeHTTP(l)
}
