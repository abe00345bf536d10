package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"biasedres/internal/durable"
	"biasedres/internal/federation"
	"biasedres/internal/obs"
	"biasedres/internal/server"
	"biasedres/internal/wire"
)

// The daemons are composed in-process exactly as cmd/reservoird composes
// them, with its flag defaults: an info-level text logger (formatted, then
// discarded, so request logging costs what it costs in production), an
// 8 MiB body cap, the "variable" default policy, durability on OSFS with
// a 10 s checkpoint interval, min-ops 1 and a 100 ms journal fsync
// window, a wire listener with the 64 MiB frame cap, and an http.Server
// with a 10 s header timeout. Only the addresses (loopback, ephemeral
// ports) and the data directories differ.

const (
	daemonSeed     = 1
	maxBodyBytes   = 8 << 20
	maxFrameBytes  = 64 << 20
	asyncWorkers   = 2
	asyncQueue     = 64
	fedReplication = 2
	fedShards      = 2
)

var durabilityDefaults = server.DurabilityConfig{
	CheckpointInterval:  10 * time.Second,
	CheckpointMinOps:    1,
	JournalSyncInterval: 100 * time.Millisecond,
}

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// daemon is one running data node or coordinator: its HTTP listener, its
// wire listener, and whatever must be closed after them.
type daemon struct {
	api *server.Server          // data node
	co  *federation.Coordinator // coordinator
	dir string                  // data node's data directory

	base     string // http://host:port
	wireAddr string
	srv      *http.Server
	wl       *wire.Listener
	wg       sync.WaitGroup
}

// nodeOptions builds a data node's server options, as reservoird does for
// -data-dir (and -ingest-workers 2 -ingest-queue 64 when async).
func nodeOptions(fs durable.FS, dir string, async bool) ([]server.Option, error) {
	store, err := durable.Open(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("opening data dir: %w", err)
	}
	opts := []server.Option{server.WithLogger(discardLogger()), server.WithMaxBodyBytes(maxBodyBytes),
		server.WithDefaultPolicy("variable")}
	if async {
		opts = append(opts, server.WithIngestShards(asyncWorkers, asyncQueue))
	}
	return append(opts, server.WithDurability(store, durabilityDefaults)), nil
}

// startNode starts a durable data node. With rec set, its sink, handler
// and filesystem are wrapped to record spans as node number node.
func startNode(dir string, async bool, rec *recorder, node int) (*daemon, error) {
	var fs durable.FS = durable.OSFS{}
	if rec != nil {
		fs = newTracedFS(fs, rec, node)
	}
	opts, err := nodeOptions(fs, dir, async)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir}
	d.api = server.New(daemonSeed, opts...)
	var sink wire.Sink = d.api
	var h http.Handler = d.api
	if rec != nil {
		sink = tracedSink{inner: d.api, rec: rec, node: node, layer: layerServer}
		h = tracedHandler{inner: d.api, rec: rec, node: node, layer: layerServer}
	}
	if err := d.serve(sink, h, d.api.Metrics()); err != nil {
		d.api.Close()
		return nil, err
	}
	// Advertise the wire address in /healthz, as reservoird does, so a
	// coordinator routes replica writes over the binary protocol.
	d.api.SetWireAddr(d.wireAddr)
	return d, nil
}

// startCoordinator starts a federation coordinator over peers with
// -replication 2 -shards 2, fronting its own wire listener, and runs one
// health sweep so it knows every peer's wire address before traffic.
func startCoordinator(peers []string, rec *recorder, node int) (*daemon, error) {
	co, err := federation.New(peers, federation.Config{Replication: fedReplication, Shards: fedShards},
		federation.WithLogger(discardLogger()))
	if err != nil {
		return nil, fmt.Errorf("starting coordinator: %w", err)
	}
	d := &daemon{co: co}
	var sink wire.Sink = co
	var h http.Handler = co
	if rec != nil {
		sink = tracedSink{inner: co, rec: rec, node: node, layer: layerFed}
		h = tracedHandler{inner: co, rec: rec, node: node, layer: layerFed}
	}
	if err := d.serve(sink, h, co.Metrics()); err != nil {
		co.Close()
		return nil, err
	}
	co.Sweep(context.Background())
	return d, nil
}

// serve binds the wire and HTTP listeners on loopback and serves them.
func (d *daemon) serve(sink wire.Sink, h http.Handler, metrics *obs.Registry) error {
	d.wl = wire.NewListener(sink, wire.WithLogger(discardLogger()), wire.WithMetrics(metrics),
		wire.WithMaxFrameBytes(maxFrameBytes))
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("wire listen: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wln.Close()
		return fmt.Errorf("http listen: %w", err)
	}
	d.wireAddr = wln.Addr().String()
	d.base = "http://" + ln.Addr().String()
	d.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.wg.Add(2)
	go func() {
		defer d.wg.Done()
		_ = d.wl.Serve(wln) // returns nil after Close
	}()
	go func() {
		defer d.wg.Done()
		_ = d.srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	return nil
}

// close shuts the daemon down in reservoird's order: stop HTTP, stop the
// wire listener, then drain the server (final checkpoint) or stop the
// coordinator's health checker. It returns once every goroutine it
// started has exited.
//
// The generators have stopped before any daemon closes, so HTTP stops
// with Close, not reservoird's graceful Shutdown: Shutdown waits 5 s for
// a connection that was dialled but never carried a request (the
// coordinator's transport leaves some), which only slowed the benchmark.
func (d *daemon) close() error {
	err := d.srv.Close()
	if werr := d.wl.Close(); werr != nil && err == nil {
		err = werr
	}
	if d.api != nil {
		d.api.Close()
	}
	if d.co != nil {
		d.co.Close()
	}
	d.wg.Wait()
	return err
}
