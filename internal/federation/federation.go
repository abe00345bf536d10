// Package federation is the cross-node coordination layer: one
// Coordinator owns a registry of reservoird data nodes, health-checks
// them, and serves the familiar query API by gathering one answer per
// shard of the named stream from the healthy peers holding it and
// merging the per-shard results.
//
// Correctness rests on the linearity of the paper's Section-4 estimator:
// H(t) = Σ I(r,t)·c_r·h(X_r)/p(r,t) is a sum over points whose inclusion
// probabilities depend only on their own shard's stream, so for disjoint
// shard streams the union's estimate is the sum of the shards' estimates
// — and the Lemma 4.1 variance sums the same way. The coordinator
// therefore never merges final floats: it gathers each shard's fused
// accumulator (GET /streams/{name}/accum, see internal/query's Accum)
// and sums term by term, deriving count/average/classdist/groupavg/
// selectivity from the merged accumulator exactly as a single node would
// from its own.
//
// API (all bodies JSON):
//
//	GET    /streams                     union of healthy peers' streams
//	GET    /streams/{name}/query        federated estimate (same params as a node)
//	GET    /streams/{name}/sample       concatenated shard samples, origin-tagged
//	GET    /peers                       registry with health state
//	POST   /peers                       add a peer        {"addr":"http://host:port"}
//	DELETE /peers?addr=...              remove a peer
//	GET    /healthz                     coordinator liveness + peer counts
//	GET    /readyz                      ready once a health sweep ran and ≥1 peer is up
//	GET    /metrics                     Prometheus text exposition (biasedres_fed_*)
//
// Partial failure degrades, never fails: every peer call applies a
// per-peer timeout and one hedged retry, and a response assembled from
// fewer shards than the stream has carries "partial": true alongside
// shards_ok/shards_total instead of an error status.
package federation

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/httpapi"
	"biasedres/internal/obs"
	"biasedres/internal/query"
	"biasedres/internal/registry"
)

// Config tunes the coordinator. Zero values pick the defaults.
type Config struct {
	// PeerTimeout bounds one shard's whole call, hedge included
	// (default 2s).
	PeerTimeout time.Duration
	// HedgeDelay is how long to wait on a silent peer before firing the
	// one hedged duplicate request (default 250ms). A peer that fails
	// fast is retried immediately instead.
	HedgeDelay time.Duration
	// HealthInterval is the /healthz polling period (default 1s).
	HealthInterval time.Duration
	// Rise is how many consecutive successful probes bring an unhealthy
	// peer back (default 2).
	Rise int
	// Fall is how many consecutive failed probes take a healthy peer out
	// of rotation (default 2).
	Fall int
	// Replication is how many placement-chosen peers each shard of a
	// coordinator-managed stream is written to (default 1; 2+ makes any
	// single node loss invisible to queries).
	Replication int
	// Shards is the default shard count for streams created without an
	// explicit "shards" field (default 1).
	Shards int
}

func (cfg Config) withDefaults() Config {
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = 2 * time.Second
	}
	if cfg.HedgeDelay <= 0 {
		cfg.HedgeDelay = 250 * time.Millisecond
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.Rise <= 0 {
		cfg.Rise = 2
	}
	if cfg.Fall <= 0 {
		cfg.Fall = 2
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	return cfg
}

// Coordinator is the federation http.Handler. Create with New, mount it,
// and Close it to stop the health checker.
type Coordinator struct {
	cfg     Config
	log     *slog.Logger
	metrics *obs.Registry
	httpm   *obs.HTTPMetrics
	mux     *http.ServeMux

	peers    *registry.Registry[*peer] // data nodes, by normalized base URL
	mu       sync.RWMutex              // guards fstreams
	fstreams map[string]*fedStream     // coordinator-managed (sharded, replicated) streams

	wmu   sync.Mutex                  // guards wires
	wires map[string]*client.WireConn // pooled binary-ingest conns, by peer addr

	peerReqs *obs.CounterVec // biasedres_fed_peer_requests_total{peer}
	peerErrs *obs.CounterVec // biasedres_fed_peer_errors_total{peer}
	fanouts  *obs.CounterVec // biasedres_fed_fanouts_total{route}
	hedges   *obs.Counter    // biasedres_fed_hedged_requests_total
	partials *obs.Counter    // biasedres_fed_partial_responses_total
	fanLat   *obs.HistogramVec

	replicaWrites    *obs.CounterVec // biasedres_fed_replica_writes_total{peer}
	replicaWriteErrs *obs.CounterVec // biasedres_fed_replica_write_errors_total{peer}
	dedupDropped     *obs.Counter    // biasedres_fed_replica_dedup_dropped_total
	migrStreams      *obs.Counter    // biasedres_fed_migration_streams_total
	migrBytes        *obs.Counter    // biasedres_fed_migration_bytes_total
	migrErrs         *obs.Counter    // biasedres_fed_migration_errors_total
	migrSeconds      *obs.Histogram  // biasedres_fed_migration_seconds
	drains           *obs.Counter    // biasedres_fed_drains_total

	swept     atomic.Bool   // a full health sweep has completed
	sweeps    atomic.Uint64 // completed sweeps; tests wait out the startup sweep on it
	closing   atomic.Bool   // Close has begun: readiness fails first
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// Option customizes a Coordinator.
type Option func(*Coordinator)

// WithLogger enables structured logging through l.
func WithLogger(l *slog.Logger) Option {
	return func(co *Coordinator) { co.log = l }
}

// WithMetrics records the coordinator's instruments into reg instead of a
// private registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(co *Coordinator) { co.metrics = reg }
}

// New returns a Coordinator over the given peer base URLs (e.g.
// "http://10.0.0.1:8080") and starts its health checker. Peers start in
// the healthy state — the fall threshold takes unreachable ones out of
// rotation after the first sweeps — so a freshly started coordinator can
// serve immediately.
func New(peers []string, cfg Config, opts ...Option) (*Coordinator, error) {
	co := &Coordinator{
		cfg:      cfg.withDefaults(),
		peers:    registry.New[*peer](0),
		fstreams: make(map[string]*fedStream),
		wires:    make(map[string]*client.WireConn),
		stop:     make(chan struct{}),
	}
	for _, opt := range opts {
		opt(co)
	}
	if co.metrics == nil {
		co.metrics = obs.NewRegistry()
	}
	co.httpm = obs.NewHTTPMetrics(co.metrics, "biasedres_fed")
	co.peerReqs = co.metrics.Counter("biasedres_fed_peer_requests_total",
		"Requests sent to each peer across all fan-outs (hedges included).", "peer")
	co.peerErrs = co.metrics.Counter("biasedres_fed_peer_errors_total",
		"Peer calls that failed after the hedged retry.", "peer")
	co.fanouts = co.metrics.Counter("biasedres_fed_fanouts_total",
		"Scatter-gather operations run, by coordinator route.", "route")
	co.hedges = co.metrics.Counter("biasedres_fed_hedged_requests_total",
		"Duplicate (hedged) peer requests fired on slow or failed primaries.").With()
	co.partials = co.metrics.Counter("biasedres_fed_partial_responses_total",
		"Federated responses assembled from fewer shards than attempted.").With()
	co.fanLat = co.metrics.Histogram("biasedres_fed_fanout_seconds",
		"Whole scatter-gather latency (slowest shard or timeout), by route.",
		obs.DefLatencyBuckets(), "route")
	co.replicaWrites = co.metrics.Counter("biasedres_fed_replica_writes_total",
		"Shard sub-batches acknowledged by each replica peer.", "peer")
	co.replicaWriteErrs = co.metrics.Counter("biasedres_fed_replica_write_errors_total",
		"Shard sub-batch writes that failed at each replica peer.", "peer")
	co.dedupDropped = co.metrics.Counter("biasedres_fed_replica_dedup_dropped_total",
		"Redundant replica responses discarded by per-shard max-position dedup.").With()
	co.migrStreams = co.metrics.Counter("biasedres_fed_migration_streams_total",
		"Streams shipped to a new placement by drain operations.").With()
	co.migrBytes = co.metrics.Counter("biasedres_fed_migration_bytes_total",
		"Checkpoint bytes shipped by drain operations.").With()
	co.migrErrs = co.metrics.Counter("biasedres_fed_migration_errors_total",
		"Stream migrations that failed (stream left on the source).").With()
	co.migrSeconds = co.metrics.Histogram("biasedres_fed_migration_seconds",
		"Whole drain-operation latency.", obs.DefLatencyBuckets()).With()
	co.drains = co.metrics.Counter("biasedres_fed_drains_total",
		"Drain operations started.").With()
	co.metrics.Register(obs.CollectorFunc(co.collectPeers))

	for _, addr := range peers {
		if err := co.addPeer(addr); err != nil {
			return nil, fmt.Errorf("federation: peer %q: %w", addr, err)
		}
	}

	mux := http.NewServeMux()
	routes := []struct {
		pattern string
		handler http.HandlerFunc
	}{
		{"GET /healthz", co.handleHealthz},
		{"GET /readyz", co.handleReadyz},
		{"GET /peers", co.handlePeersList},
		{"POST /peers", co.handlePeerAdd},
		{"DELETE /peers", co.handlePeerRemove},
		{"POST /peers/drain", co.handleDrain},
		{"GET /streams", co.handleStreams},
		{"PUT /streams/{name}", co.handleStreamCreate},
		{"DELETE /streams/{name}", co.handleStreamDelete},
		{"POST /streams/{name}/points", co.handleIngest},
		{"GET /streams/{name}/query", co.handleQuery},
		{"GET /streams/{name}/sample", co.handleSample},
	}
	for _, rt := range routes {
		mux.Handle(rt.pattern, co.httpm.Wrap(rt.pattern, rt.handler))
	}
	mux.Handle("GET /metrics", co.httpm.Wrap("GET /metrics", co.metrics.Handler()))
	co.mux = mux

	co.wg.Add(1)
	go co.runHealth()
	return co, nil
}

// Metrics returns the coordinator's registry.
func (co *Coordinator) Metrics() *obs.Registry { return co.metrics }

// ServeHTTP implements http.Handler.
func (co *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { co.mux.ServeHTTP(w, r) }

// Close stops the health checker and the pooled wire connections. Safe
// to call more than once. Readiness fails the moment Close begins, so a
// load balancer draining on /readyz stops routing before the
// coordinator stops answering.
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() {
		co.closing.Store(true)
		close(co.stop)
		co.wg.Wait()
		co.dropWireConns()
	})
}

// maxBodyBytes bounds every coordinator request body, at the data node's
// default -max-body-bytes.
const maxBodyBytes = 8 << 20

// --- scatter-gather machinery ---

// outcome is one peer's answer in a fan-out.
type outcome[T any] struct {
	addr     string
	val      T
	err      error
	notFound bool // peer answered 404: it does not hold the stream
}

// callPeer is the one way the coordinator calls a peer. The call is
// bounded by the per-peer timeout and gets one hedged retry: a duplicate
// attempt after HedgeDelay of silence, or immediately when the primary
// fails with a retryable error; first success wins. A 404 is classified
// as "does not hold the stream", not as a failure.
func callPeer[T any](ctx context.Context, co *Coordinator, p *peer, call func(context.Context, *peer) (T, error)) outcome[T] {
	ctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
	defer cancel()
	co.peerReqs.With(p.addr).Inc()
	val, err := hedged(ctx, co.cfg.HedgeDelay, retryable, func() {
		co.hedges.Inc()
		co.peerReqs.With(p.addr).Inc()
	}, func(ctx context.Context) (T, error) {
		return call(ctx, p)
	})
	o := outcome[T]{addr: p.addr, val: val, err: err}
	var apiErr *client.APIError
	switch {
	case err == nil:
	case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound:
		o.notFound, o.err = true, nil
	default:
		co.peerErrs.With(p.addr).Inc()
		if co.log != nil {
			co.log.Warn("peer call failed", "peer", p.addr, "error", err)
		}
	}
	return o
}

// fanOut calls every target concurrently and waits for all of them.
func fanOut[T any](ctx context.Context, co *Coordinator, targets []*peer, call func(context.Context, *peer) (T, error)) []outcome[T] {
	outs := make([]outcome[T], len(targets))
	var wg sync.WaitGroup
	for i, p := range targets {
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			outs[i] = callPeer(ctx, co, p, call)
		}(i, p)
	}
	wg.Wait()
	return outs
}

// fanOutFirst calls every target concurrently and returns once all have
// answered or once at least one succeeded and a HedgeDelay grace has
// passed — a blackholed replica costs one grace period, not a full
// PeerTimeout. Abandoned calls are simply absent from the result.
func fanOutFirst[T any](ctx context.Context, co *Coordinator, targets []*peer, call func(context.Context, *peer) (T, error)) []outcome[T] {
	ch := make(chan outcome[T], len(targets))
	for _, p := range targets {
		go func(p *peer) { ch <- callPeer(ctx, co, p, call) }(p)
	}
	outs := make([]outcome[T], 0, len(targets))
	var graceC <-chan time.Time
	for len(outs) < len(targets) {
		select {
		case o := <-ch:
			outs = append(outs, o)
			if o.err == nil && !o.notFound && graceC == nil {
				t := time.NewTimer(co.cfg.HedgeDelay)
				defer t.Stop()
				graceC = t.C
			}
		case <-graceC:
			return outs
		case <-ctx.Done():
			return outs
		}
	}
	return outs
}

// retryable reports whether a failed attempt is worth hedging: transport
// errors, timeouts and 5xx are; 4xx answers are authoritative.
func retryable(err error) bool {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 500
	}
	return true
}

// hedged runs do with one hedged retry. The duplicate fires after delay
// (slow primary) or immediately when the primary fails with a retryable
// error (fast failure); at most two attempts ever run, and the first
// success wins. Non-retryable failures return immediately.
func hedged[T any](ctx context.Context, delay time.Duration, canRetry func(error) bool, onHedge func(), do func(context.Context) (T, error)) (T, error) {
	type res struct {
		v   T
		err error
	}
	ch := make(chan res, 2)
	launch := func() {
		v, err := do(ctx)
		ch <- res{v, err}
	}
	go launch()

	timer := time.NewTimer(delay)
	defer timer.Stop()
	outstanding := 1
	hedgeFired := false
	var firstErr error
	var zero T
	for outstanding > 0 {
		select {
		case r := <-ch:
			outstanding--
			if r.err == nil {
				return r.v, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !canRetry(r.err) {
				// An authoritative answer (e.g. 404): if a hedge is still
				// in flight its result can't be better; return now — the
				// goroutine drains into the buffered channel.
				return zero, r.err
			}
			if !hedgeFired {
				hedgeFired = true
				onHedge()
				outstanding++
				go launch()
			}
		case <-timer.C:
			if !hedgeFired {
				hedgeFired = true
				onHedge()
				outstanding++
				go launch()
			}
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	return zero, firstErr
}

// splitHorizon maps a coordinator-level horizon onto each of n shards.
// Under round-robin sharding the last h global arrivals are the last
// ⌈h/n⌉ arrivals of each shard; h == 0 (whole stream) passes through.
func splitHorizon(h uint64, n int) uint64 {
	if h == 0 || n <= 1 {
		return h
	}
	return (h + uint64(n) - 1) / uint64(n)
}

// --- the federated read path: layout → gatherShards → shardStatus ---

// shardRef is one shard of a federated stream: the data-node stream that
// holds it and the peers holding a replica of that stream.
type shardRef struct {
	stream   string
	replicas []*peer
}

// layout lists the shards a read of name merges. A coordinator-managed
// stream's shards are its HRW placements ("name@i"). Any other name is a
// hands-on stream, created on the nodes directly: one single-replica
// shard per registered peer whose routing hint may hold it, healthy or
// not. An evicted peer's shard stays in the layout, so a read without it
// says it is partial, and the horizon split does not widen the windows of
// the shards that did answer.
func (co *Coordinator) layout(name string) []shardRef {
	if fs, ok := co.lookupFed(name); ok {
		refs := make([]shardRef, fs.shards)
		for i := range refs {
			refs[i] = shardRef{shardStream(name, i), co.placement(name, i, fs.replicas)}
		}
		return refs
	}
	var refs []shardRef
	for _, p := range co.peerList() {
		if p.mayHold(name) {
			refs = append(refs, shardRef{name, []*peer{p}})
		}
	}
	return refs
}

// shardRead is one shard's result in a gather.
type shardRead[T any] struct {
	val      T
	addr     string // the replica whose answer was kept
	ok       bool   // some replica answered
	notFound bool   // every replica asked answered 404
}

// gatherShards reads every shard of refs concurrently. Each shard races
// its healthy replicas and keeps the answer with the highest stream
// position pos: the replicas hold the same shard stream, so merging two
// of them would count every Horvitz–Thompson term twice. A shard with no
// healthy replica fails without a call.
func gatherShards[T any](ctx context.Context, co *Coordinator, route string, refs []shardRef, pos func(T) uint64, call func(ctx context.Context, p *peer, stream string) (T, error)) []shardRead[T] {
	start := time.Now()
	co.fanouts.With(route).Inc()
	reads := make([]shardRead[T], len(refs))
	var wg sync.WaitGroup
	for i, ref := range refs {
		var healthy []*peer
		for _, p := range ref.replicas {
			if p.isHealthy() {
				healthy = append(healthy, p)
			}
		}
		if len(healthy) == 0 {
			continue
		}
		wg.Add(1)
		go func(rd *shardRead[T], stream string, healthy []*peer) {
			defer wg.Done()
			outs := fanOutFirst(ctx, co, healthy, func(ctx context.Context, p *peer) (T, error) {
				return call(ctx, p, stream)
			})
			notFound := 0
			for _, o := range outs {
				switch {
				case o.notFound:
					notFound++
				case o.err != nil:
				case !rd.ok || pos(o.val) > pos(rd.val):
					if rd.ok {
						co.dedupDropped.Inc()
					}
					rd.val, rd.addr, rd.ok = o.val, o.addr, true
				default:
					co.dedupDropped.Inc()
				}
			}
			rd.notFound = notFound > 0 && notFound == len(outs)
		}(&reads[i], ref.stream, healthy)
	}
	wg.Wait()
	co.fanLat.With(route).Observe(time.Since(start).Seconds())
	return reads
}

// shardStatus is the one status rule of a federated read. It answers 404
// when the layout is empty or every shard answered 404, and 503 when no
// shard answered. Otherwise it returns the response envelope: shards_ok
// counts the shards some replica answered for, shards_total the whole
// layout, and partial is set when some shard is missing.
func shardStatus[T any](co *Coordinator, w http.ResponseWriter, name string, reads []shardRead[T]) (map[string]any, bool) {
	ok, notFound := 0, 0
	for _, rd := range reads {
		if rd.ok {
			ok++
		} else if rd.notFound {
			notFound++
		}
	}
	if notFound == len(reads) {
		httpapi.Error(w, http.StatusNotFound, "stream %q not found on any peer", name)
		return nil, false
	}
	if ok == 0 {
		httpapi.Error(w, http.StatusServiceUnavailable, "all %d shards of stream %q failed", len(reads), name)
		return nil, false
	}
	partial := ok < len(reads)
	if partial {
		co.partials.Inc()
	}
	return map[string]any{"shards_ok": ok, "shards_total": len(reads), "partial": partial}, true
}

func (co *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	req, err := query.ParseRequest(r.URL.Query())
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A weighted quantile is not a linear statistic, so per-shard
	// quantiles do not compose.
	if !req.Linear() {
		httpapi.Error(w, http.StatusBadRequest,
			"quantile is not linearly mergeable across shards; query a node directly")
		return
	}

	// The horizon splits by the whole layout, not by the shards that
	// answer: a missing shard still owns its share of the last h arrivals.
	refs := co.layout(name)
	per := splitHorizon(req.H, len(refs))
	reads := gatherShards(r.Context(), co, "query", refs,
		func(a *query.Accum) uint64 { return a.T },
		func(ctx context.Context, p *peer, stream string) (*query.Accum, error) {
			return p.c.AccumContext(ctx, stream, per, req.ReadsSums(), req.Rect)
		})
	resp, ok := shardStatus(co, w, name, reads)
	if !ok {
		return
	}
	merged := query.NewMergeAccum(req.H)
	for _, rd := range reads {
		if rd.ok {
			merged.Merge(rd.val)
		}
	}
	fields, err := query.Answer(req.Type, merged)
	if err != nil {
		httpapi.Error(w, http.StatusConflict, "%v", err)
		return
	}
	maps.Copy(resp, fields)
	httpapi.JSON(w, http.StatusOK, resp)
}

func (co *Coordinator) handleSample(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	reads := gatherShards(r.Context(), co, "sample", co.layout(name),
		func(s *query.Sample) uint64 { return s.T },
		func(ctx context.Context, p *peer, stream string) (*query.Sample, error) {
			return p.c.SampleContext(ctx, stream)
		})
	resp, ok := shardStatus(co, w, name, reads)
	if !ok {
		return
	}
	// Each point is tagged with the replica it came from.
	type originPoint struct {
		query.SamplePoint
		Origin string `json:"origin"`
	}
	var maxT uint64
	points := []originPoint{}
	for _, rd := range reads {
		if !rd.ok {
			continue
		}
		maxT = max(maxT, rd.val.T)
		for _, sp := range rd.val.Points {
			points = append(points, originPoint{sp, rd.addr})
		}
	}
	resp["t"], resp["points"] = maxT, points
	httpapi.JSON(w, http.StatusOK, resp)
}

func (co *Coordinator) handleStreams(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	co.fanouts.With("streams").Inc()
	targets := co.healthyPeers()
	outs := fanOut(r.Context(), co, targets, func(ctx context.Context, p *peer) ([]string, error) {
		return p.c.ListStreamsContext(ctx)
	})
	co.fanLat.With("streams").Observe(time.Since(start).Seconds())

	union := map[string]bool{}
	ok, total := 0, 0
	for _, o := range outs {
		total++
		if o.err != nil {
			continue
		}
		ok++
		for _, name := range o.val {
			union[name] = true
		}
	}
	// Shard replicas ("s@0", "s@1") present as their federated stream.
	names := fedStreamNames(union, co.fedList())
	partial := total > 0 && ok < total
	if partial {
		co.partials.Inc()
	}
	httpapi.JSON(w, http.StatusOK, map[string]any{
		"streams": names, "shards_ok": ok, "shards_total": total, "partial": partial,
	})
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	peers := co.peerList()
	healthy := 0
	for _, p := range peers {
		if p.isHealthy() {
			healthy++
		}
	}
	httpapi.JSON(w, http.StatusOK, map[string]any{
		"status": "ok", "role": "coordinator",
		"peers": len(peers), "peers_healthy": healthy,
	})
}

// handleReadyz is the coordinator's data-availability gate: ready only
// when a health sweep has run, Close has not begun, and every stream the
// coordinator knows about — hinted on any peer or coordinator-managed —
// has at least one reachable replica. A load balancer watching it stops
// routing as soon as a stream would answer 404/503, and first of all on
// shutdown.
func (co *Coordinator) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if err := co.readyErr(); err != nil {
		httpapi.Error(w, http.StatusServiceUnavailable, "not ready: %v", err)
		return
	}
	healthy := len(co.healthyPeers())
	httpapi.JSON(w, http.StatusOK, map[string]any{"status": "ready", "peers_healthy": healthy})
}

// readyErr reports why the coordinator is not ready, or nil. It walks the
// layout reads walk, over every managed stream and every stream hinted on
// a peer (shard replicas belong to their managed stream): a shard is
// served when one of its replicas is healthy and its hint may hold the
// shard. A managed stream needs every shard served, a stream created on
// the nodes directly one.
func (co *Coordinator) readyErr() error {
	if co.closing.Load() {
		return errors.New("shutting down")
	}
	if !co.swept.Load() {
		return errors.New("first health sweep pending")
	}
	if len(co.healthyPeers()) == 0 {
		return errors.New("no healthy peers")
	}
	names := map[string]bool{}
	for name := range co.fedList() {
		names[name] = true
	}
	for _, p := range co.peerList() {
		p.mu.Lock()
		for name := range p.streams {
			if _, _, shard := parseShardStream(name); !shard {
				names[name] = true
			}
		}
		p.mu.Unlock()
	}
	for name := range names {
		_, managed := co.lookupFed(name)
		served := 0
		for _, ref := range co.layout(name) {
			if slices.ContainsFunc(ref.replicas, func(p *peer) bool { return p.isHealthy() && p.mayHold(ref.stream) }) {
				served++
			} else if managed {
				return fmt.Errorf("stream %q shard %s has no reachable replica", name, ref.stream)
			}
		}
		if served == 0 {
			return fmt.Errorf("stream %q has no reachable replica", name)
		}
	}
	return nil
}
