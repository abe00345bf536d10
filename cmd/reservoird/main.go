// Command reservoird serves the biased reservoir sampling library over
// HTTP: create named streams, push points, query the recent past, and
// checkpoint/restore reservoirs across restarts. See internal/server for
// the API.
//
// Usage:
//
//	reservoird -addr :8080 -seed 42 [-log-format text|json] [-log-level info] [-pprof :6060]
//	           [-default-policy variable] [-ingest-workers 4 -ingest-queue 64] [-wire-addr :8081]
//	           [-data-dir /var/lib/reservoird -checkpoint-interval 10s]
//	           [-retention-floor 1e-6 -retention-interval 30s]
//	reservoird -federate -peers http://n1:8080,http://n2:8080 [-addr :8080]
//	           [-fed-peer-timeout 2s -fed-hedge-delay 250ms]
//	           [-fed-health-interval 1s -fed-rise 2 -fed-fall 2]
//	           [-replication 2 -shards 4] [-wire-addr :8081]
//
// Ingest modes:
//
//	By default POST /streams/{name}/points is synchronous: the request
//	returns 200 after the points are sampled. With -ingest-workers N > 0
//	each stream gets a bounded queue (-ingest-queue batches) drained by
//	its own goroutine; ingest returns 202 immediately, a full queue
//	returns 429 with Retry-After, and at most N workers apply batches
//	concurrently. See docs/OPERATIONS.md for tuning.
//
//	With -wire-addr set, a data node additionally serves the binary wire
//	ingest protocol (internal/wire) on that address: persistent TCP
//	connections carrying length-prefixed binary frames, decoded without
//	per-point allocations into the same ingest pipeline. Backpressure is
//	an explicit NACK with a retry hint — the wire form of the 429
//	contract. See docs/ARCHITECTURE.md §8.
//
// Durability:
//
//	With -data-dir set, every stream survives process death: crash-safe
//	checkpoint files plus an append-only ops journal per stream, written
//	under the given directory. On startup the daemon recovers every
//	stream from disk (corrupt files are quarantined, never fatal); on
//	SIGTERM it drains the ingest queues and cuts a final checkpoint.
//	-checkpoint-interval and -checkpoint-min-ops tune the background
//	checkpointer; -journal-sync-interval is the fsync coalescing window
//	that bounds data loss after a hard kill. Without -data-dir the
//	daemon is memory-only, as before. See docs/OPERATIONS.md §8.
//
// Retention:
//
//	With -retention-floor p > 0 a background sweep removes reservoir
//	residents whose inclusion probability decayed below p (bounding the
//	largest Horvitz–Thompson weight at 1/p) every -retention-interval.
//	Tiers of multi-horizon streams whose points have fully decayed are
//	emptied and counted in biasedres_tier_drops_total; with -data-dir the
//	compacted state is re-checkpointed immediately. See docs/OPERATIONS.md.
//
// Federation:
//
//	With -federate the process is a coordinator instead of a data node:
//	it owns a registry of peer data nodes (-peers, extendable at runtime
//	via POST/DELETE /peers), health-checks them, and serves the query API
//	by scatter-gathering to every healthy node holding the named stream
//	and merging per-shard Horvitz–Thompson accumulators. Responses carry
//	shards_ok/shards_total and degrade to "partial": true when a shard is
//	down. See internal/federation and docs/OPERATIONS.md §9.
//
//	Streams created through the coordinator (PUT /streams/{name}) are
//	placed by rendezvous hashing onto -shards round-robin shards with
//	-replication replicas each; with -replication 2+ any single node
//	loss leaves queries whole (partial:false, estimates unchanged), and
//	POST /peers/drain live-migrates a departing node's streams onto
//	their next placement before removal. A coordinator given -wire-addr
//	accepts binary ingest frames and fans them out to the shard
//	replicas. See docs/OPERATIONS.md §11.
//
// Observability:
//
//	GET /metrics exposes Prometheus text-format counters, latency
//	histograms and per-stream sampler gauges. Requests and lifecycle
//	events are logged through log/slog (text or JSON). The -pprof flag
//	opts into a net/http/pprof listener on a separate address so
//	profiling is never exposed on the service port.
//
// Example session:
//
//	curl -X PUT localhost:8080/streams/sensor \
//	     -d '{"policy":"variable","lambda":0.0001,"capacity":1000}'
//	curl -X POST localhost:8080/streams/sensor/points \
//	     -d '{"points":[{"values":[0.3,0.7],"label":1}]}'
//	curl 'localhost:8080/streams/sensor/query?type=average&h=1000'
//	curl 'localhost:8080/streams/sensor/transfer' -o sensor.ckpt
//	curl -X POST localhost:8080/streams/sensor/restore --data-binary @sensor.ckpt
//	curl 'localhost:8080/metrics'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/federation"
	"biasedres/internal/obs"
	"biasedres/internal/server"
	"biasedres/internal/wire"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		seed      = flag.Uint64("seed", 1, "random seed for all samplers")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
		workers   = flag.Int("ingest-workers", 0,
			"enable sharded async ingest with this many concurrent batch appliers (0 = synchronous ingest)")
		queue = flag.Int("ingest-queue", 64,
			"per-stream ingest queue depth in batches (used when -ingest-workers > 0)")
		wireAddr = flag.String("wire-addr", "",
			"serve the binary wire ingest protocol on this TCP address (empty = disabled)")
		wireMaxFrame = flag.Int("wire-max-frame-bytes", 64<<20,
			"maximum wire frame body size in bytes; larger frames are rejected and the connection closed")
		dataDir = flag.String("data-dir", "",
			"persist streams under this directory: checkpoints + ops journals, recovered on startup (empty = memory-only)")
		ckptInterval = flag.Duration("checkpoint-interval", 10*time.Second,
			"background checkpointer wake period (used when -data-dir is set)")
		ckptMinOps = flag.Uint64("checkpoint-min-ops", 1,
			"minimum sampler mutations since a stream's last checkpoint before a new one is written")
		syncInterval = flag.Duration("journal-sync-interval", 100*time.Millisecond,
			"journal fsync coalescing window; bounds data loss after a hard kill")
		maxBody = flag.Int64("max-body-bytes", 8<<20,
			"maximum request body size in bytes; larger ingest/restore bodies get 413")
		defaultPolicy = flag.String("default-policy", "variable",
			"sampler family for create requests that omit \"policy\": variable | biased | constrained | unbiased | window | timedecay | ttbs | rtbs")
		retFloor = flag.Float64("retention-floor", 0,
			"drop reservoir residents whose inclusion probability decayed below this floor (0 = retention disabled)")
		retInterval = flag.Duration("retention-interval", 30*time.Second,
			"retention sweep period (used when -retention-floor > 0)")
		federate = flag.Bool("federate", false,
			"run as a federation coordinator over -peers instead of a data node")
		peers = flag.String("peers", "",
			"comma-separated peer base URLs, e.g. http://n1:8080,http://n2:8080 (coordinator mode)")
		fedPeerTimeout = flag.Duration("fed-peer-timeout", 2*time.Second,
			"per-shard call budget, hedged retry included (coordinator mode)")
		fedHedgeDelay = flag.Duration("fed-hedge-delay", 250*time.Millisecond,
			"silence before the one hedged duplicate request fires (coordinator mode)")
		fedHealthInterval = flag.Duration("fed-health-interval", time.Second,
			"peer /healthz polling period (coordinator mode)")
		fedRise = flag.Int("fed-rise", 2,
			"consecutive successful probes that revive an unhealthy peer")
		fedFall = flag.Int("fed-fall", 2,
			"consecutive failed probes that evict a healthy peer")
		replication = flag.Int("replication", 1,
			"replicas per shard of coordinator-managed streams; 2+ makes any single node loss invisible (coordinator mode)")
		shards = flag.Int("shards", 1,
			"default shard count for streams created through the coordinator without an explicit \"shards\" field")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *workers < 0 || (*workers > 0 && *queue <= 0) {
		fmt.Fprintln(os.Stderr, "reservoird: -ingest-workers must be ≥ 0 and -ingest-queue > 0")
		os.Exit(2)
	}

	// api is the daemon's backend, a data node or a coordinator. It serves
	// HTTP and the wire listener's frames, and its Close drains background
	// work after the listeners stop — either the data node's
	// ingest/durability machinery or the coordinator's health checker.
	var api interface {
		http.Handler
		wire.Sink
		Metrics() *obs.Registry
		Close()
	}
	if *federate {
		peerList := splitPeers(*peers)
		if len(peerList) == 0 {
			fmt.Fprintln(os.Stderr, "reservoird: -federate needs at least one -peers URL")
			os.Exit(2)
		}
		co, err := federation.New(peerList, federation.Config{
			PeerTimeout:    *fedPeerTimeout,
			HedgeDelay:     *fedHedgeDelay,
			HealthInterval: *fedHealthInterval,
			Rise:           *fedRise,
			Fall:           *fedFall,
			Replication:    *replication,
			Shards:         *shards,
		}, federation.WithLogger(logger))
		if err != nil {
			logger.Error("starting coordinator", "error", err)
			os.Exit(1)
		}
		logger.Info("federation coordinator mode", "peers", len(peerList),
			"peer_timeout", *fedPeerTimeout, "hedge_delay", *fedHedgeDelay,
			"health_interval", *fedHealthInterval, "rise", *fedRise, "fall", *fedFall,
			"replication", *replication, "shards", *shards)
		api = co
	} else {
		if !core.ValidPolicy(*defaultPolicy) {
			fmt.Fprintf(os.Stderr, "reservoird: -default-policy %q is not one of %s\n",
				*defaultPolicy, strings.Join(core.Policies(), " | "))
			os.Exit(2)
		}
		opts := []server.Option{server.WithLogger(logger), server.WithMaxBodyBytes(*maxBody),
			server.WithDefaultPolicy(*defaultPolicy)}
		if *retFloor < 0 || *retFloor >= 1 {
			fmt.Fprintln(os.Stderr, "reservoird: -retention-floor must be in [0, 1)")
			os.Exit(2)
		}
		if *retFloor > 0 {
			opts = append(opts, server.WithRetention(*retFloor, *retInterval))
			logger.Info("retention enabled", "floor", *retFloor, "interval", *retInterval)
		}
		if *workers > 0 {
			opts = append(opts, server.WithIngestShards(*workers, *queue))
			logger.Info("sharded ingest enabled", "workers", *workers, "queue", *queue)
		}
		if *dataDir != "" {
			store, err := durable.Open(durable.OSFS{}, *dataDir)
			if err != nil {
				logger.Error("opening data dir", "dir", *dataDir, "error", err)
				os.Exit(1)
			}
			opts = append(opts, server.WithDurability(store, server.DurabilityConfig{
				CheckpointInterval:  *ckptInterval,
				CheckpointMinOps:    *ckptMinOps,
				JournalSyncInterval: *syncInterval,
			}))
			logger.Info("durability enabled", "data_dir", *dataDir,
				"checkpoint_interval", *ckptInterval, "checkpoint_min_ops", *ckptMinOps,
				"journal_sync_interval", *syncInterval)
		}
		api = server.New(*seed, opts...)
	}
	closeAPI := api.Close
	if *wireAddr != "" {
		// A data node feeds wire frames into its ingest pipeline; a
		// coordinator fans each frame out to the stream's shard replicas
		// exactly like an HTTP batch.
		wl := wire.NewListener(api,
			wire.WithLogger(logger),
			wire.WithMetrics(api.Metrics()),
			wire.WithMaxFrameBytes(*wireMaxFrame))
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			logger.Error("wire listen failed", "addr", *wireAddr, "error", err)
			os.Exit(1)
		}
		if node, ok := api.(*server.Server); ok {
			// Advertise the resolved wire address in GET /healthz so
			// coordinators discover the binary ingest path on their own.
			node.SetWireAddr(wln.Addr().String())
		}
		go func() {
			logger.Info("wire protocol listening", "addr", wln.Addr().String(), "coordinator", *federate)
			if err := wl.Serve(wln); err != nil {
				logger.Error("wire serve failed", "error", err)
			}
		}()
		// Shutdown order: stop accepting wire frames first, then close
		// the API — a data node's drain applies every frame ACKed before
		// the listener closed.
		closeAPI = func() {
			if err := wl.Close(); err != nil {
				logger.Warn("closing wire listener", "error", err)
			}
			api.Close()
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pprofMux()); err != nil &&
				!errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	// Listen before serving so the resolved address (":0" picks a free
	// port) is logged — the crash-recovery smoke test reads it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("reservoird listening", "addr", ln.Addr().String(), "seed", *seed)
		errCh <- srv.Serve(ln)
	}()
	select {
	case err := <-errCh:
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
		logger.Info("shutting down", "reason", "signal")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("shutdown failed", "error", err)
			os.Exit(1)
		}
		// Drain background work after the listener stops: a data node
		// applies accepted (202) batches and, with -data-dir, cuts a final
		// checkpoint so the next start recovers every acknowledged point;
		// a coordinator stops its health checker.
		closeAPI()
		logger.Info("shutdown complete")
	}
}

// splitPeers parses the comma-separated -peers value, dropping empty
// entries so trailing commas are harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// newLogger builds the process logger from the -log-format and -log-level
// flags.
func newLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("reservoird: unknown -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("reservoird: unknown -log-format %q", format)
}

// pprofMux registers the pprof handlers on a dedicated mux instead of
// http.DefaultServeMux, so nothing else can leak onto the debug listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
