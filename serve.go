package nblb

import (
	"repro/client"
	"repro/internal/server"
)

// Server serves an Engine over the network: the pipelined binary
// protocol on TCP — the one data protocol, spoken by Client — plus an
// optional admin-only HTTP listener (stats, checkpoint), with
// cross-connection write coalescing (writes that arrive while another
// is landing share the next Table.Apply and its WAL group commit). Create
// with NewServer, start with Server.ListenAndServe or Server.Serve,
// stop with Server.Shutdown. cmd/nblb-server wraps this in a binary.
type Server = server.Server

// ServerConfig configures NewServer: the Engine to serve (required) and
// NoCoalesce, which gives every write its own group commit.
type ServerConfig = server.Config

// ServerStats is the server's JSON stats snapshot (connection and
// request counters, coalescing effectiveness, WAL appends vs syncs).
type ServerStats = server.StatsSnapshot

// NewServer creates a network server over an open engine. The server
// does not own the engine: Shutdown checkpoints it but the caller
// still closes it.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Client is the Go client for nblb-server: a connection pool speaking
// the pipelined binary protocol, with timeout/retry on idempotent
// reads and a streaming query iterator. See package repro/client for
// the full API; the essentials are re-exported here.
type Client = client.Client

// ClientBatch accumulates client-side ops for Client.Apply.
type ClientBatch = client.Batch

// ClientRows is Client.Query's streaming iterator (Next / Row / Err /
// Close), mirroring the embedded Cursor.
type ClientRows = client.Rows

// ServerError is a failure reported by the server (as opposed to a
// transport error); the client never retries these.
type ServerError = client.ServerError

// DialServer connects a Client to an nblb-server address.
func DialServer(addr string, opts ...client.Option) (*Client, error) {
	return client.Dial(addr, opts...)
}
