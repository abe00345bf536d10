// Package server exposes the sampling library as an HTTP service: clients
// create named streams, push points, and query the recent past — the
// "repeatedly query recent behaviour while the stream runs forever" usage
// the paper's introduction motivates. The reservoird command wraps it in a
// binary; the package itself is transport-only so it is testable with
// net/http/httptest.
//
// API (all bodies JSON unless noted):
//
//	PUT    /streams/{name}            create a stream   {"lambda":1e-4,"capacity":1000,"policy":"variable"}
//	GET    /streams                   list streams
//	GET    /streams/{name}            stream statistics
//	DELETE /streams/{name}            drop a stream
//	POST   /streams/{name}/points     ingest            {"points":[{"values":[...],"label":0,"weight":1}, ...]}
//	GET    /streams/{name}/sample     current reservoir contents
//	GET    /streams/{name}/query      estimate; see Query parameters below
//	GET    /streams/{name}/range      bucketed estimates over [start,end)
//	GET    /streams/{name}/accum      fused HT accumulator (federation wire form)
//	GET    /streams/{name}/snapshot   binary checkpoint (octet-stream)
//	POST   /streams/{name}/restore    restore from a checkpoint body
//	POST   /streams/{name}/model      attach a managed classifier (see model.go)
//	GET    /streams/{name}/model      model statistics
//	GET    /streams/{name}/model/eval model confusion matrix and macro-F1
//	DELETE /streams/{name}/model      detach the model
//	GET    /metrics                   Prometheus text exposition
//
// Query parameters: type=count|average|classdist|groupavg|selectivity|quantile,
// h=<horizon>, dim=<dimension>, q=<quantile>, dims=<d0,d1,...> with
// lo=<l0,l1,...> hi=<h0,h1,...> for selectivity rectangles. Range
// parameters: start/end (arrival indices, end defaults to t+1) and
// max_points (bucket budget; granularity is auto-selected, see
// docs/QUERY_API.md).
//
// Streams created with "tiers" > 1 maintain a ladder of reservoirs at
// geometrically-spaced λ; horizon-carrying queries are served by the tier
// whose effective horizon 1/λ_i best covers h (docs/THEORY.md §10).
//
// Every route is instrumented: request counts by route and status class,
// per-route latency histograms, and per-stream sampler gauges are exported
// on GET /metrics (see internal/obs). Pass WithLogger to get structured
// per-request logs.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/models"
	"biasedres/internal/obs"
	"biasedres/internal/query"
	"biasedres/internal/stream"
	"biasedres/internal/xrand"
)

// defaultMaxBodyBytes bounds request bodies (ingest, restore, create)
// unless WithMaxBodyBytes overrides it. Oversized bodies get 413, not an
// unbounded read into memory.
const defaultMaxBodyBytes = 8 << 20

// managedStream is one named stream: its sampler behind the shared locked
// wrapper (core.Synchronized: sampler lock, snapshot cache, tier routing)
// plus the ingest bookkeeping. Two locks split the state so async ingest
// handlers never wait on sampler work:
//
//   - qmu guards the ingest bookkeeping: next (arrival indexing), dim,
//     closed, and the enqueue onto the shard. Handlers hold it briefly.
//   - the sampler lock inside sm guards the sampler: applies (the shard
//     worker, or the synchronous paths), checkpoint cuts, restores.
//
// When both are needed (synchronous ingest, restore, cut) the order is
// always qmu → sampler lock. Reads are served from sm's snapshot caches
// without either lock.
type managedStream struct {
	qmu sync.Mutex
	sm  *core.Synchronized
	// req is the stream's configuration, embedded in durable checkpoints
	// so recovery can rebuild the sampler.
	req  CreateRequest
	next uint64 // next arrival index; guarded by qmu
	dim  int    // fixed by the first ingested point; 0 = none yet; guarded by qmu
	// lastCkptVer is the sampler's mutation counter at the last durable
	// checkpoint; the checkpointer skips quiescent streams by comparing
	// it to the live counter. Guarded by the sampler lock.
	lastCkptVer uint64
	// fresh builds a new empty sampler with this stream's configuration;
	// restores deserialize into a fresh instance so a rejected checkpoint
	// cannot corrupt the live sampler.
	fresh func(rng *xrand.Source) (core.PersistentSampler, error)
	// timed marks a time-decay stream (core.AsTimed): it ingests by
	// timestamp, synchronously, because its timestamp check must observe
	// the sampler clock.
	timed bool
	// shard is the stream's async ingest lane (nil when the server runs
	// synchronous ingest or the stream is timed); closed marks the
	// lane shut down. pending counts points accepted onto the lane but not
	// yet applied to the sampler.
	shard   *ingestShard
	closed  bool // guarded by qmu
	pending atomic.Int64
	// model is the stream's managed classifier (nil = none). Swapped
	// atomically so the ingest hot path costs one load when no model is
	// attached.
	model atomic.Pointer[models.Model]
}

// Server is the HTTP handler. Create with New and mount it as an
// http.Handler. Servers with async ingest enabled (WithIngestShards) own
// worker goroutines; call Close to drain and stop them.
type Server struct {
	mu      sync.RWMutex
	streams map[string]*managedStream
	seeds   *xrand.Source
	mux     *http.ServeMux
	log     *slog.Logger
	metrics *obs.Registry
	httpm   *obs.HTTPMetrics
	ingest  *obs.CounterVec

	// Async ingest pipeline (zero values = synchronous ingest).
	ingestWorkers int
	ingestQueue   int
	ingestSem     chan struct{}
	ingestWG      sync.WaitGroup
	batchSize     *obs.Histogram
	rejected      *obs.CounterVec
	applied       *obs.CounterVec

	// maxBody bounds request bodies; oversized requests get 413.
	maxBody int64

	// defaultPolicy is the sampler family used by create requests that
	// omit "policy" (default "variable", the paper's sampler).
	defaultPolicy string

	// Retention sweep (zero floor = disabled): tierQueries counts
	// horizon-routed reads per (stream, tier); the sweep compacts
	// below-floor residents on retInterval.
	tierQueries *obs.CounterVec
	retRemoved  *obs.CounterVec
	retSweeps   atomic.Uint64
	retFloor    float64
	retInterval time.Duration
	retStop     chan struct{}
	retWG       sync.WaitGroup

	// Durability layer (nil = in-memory only).
	durable   *durable.Store
	dcfg      DurabilityConfig
	durStop   chan struct{}
	durWG     sync.WaitGroup
	closeOnce sync.Once

	// ready flips true once New has finished (durability recovery done,
	// ingest shards accepting) and false again when Close begins — the
	// GET /readyz contract load balancers and federation coordinators use.
	ready atomic.Bool

	// wireAddr is the node's binary-ingest listen address, advertised in
	// GET /healthz so federation coordinators can discover the fast path.
	// Empty (never set) means no wire listener.
	wireAddr atomic.Value
}

// SetWireAddr records the node's wire-protocol listen address for
// discovery: coordinators that scrape /healthz switch their ingest
// fan-out from HTTP to the binary protocol when a peer advertises one.
// Call it after wire.NewListener has bound, with the concrete address.
func (s *Server) SetWireAddr(addr string) { s.wireAddr.Store(addr) }

// Option customizes a Server.
type Option func(*Server)

// WithLogger enables structured per-request and lifecycle logging through
// l. Without it the server is silent.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithMetrics makes the server record its instruments into reg instead of
// a private registry — the way to merge server metrics with other
// subsystems (e.g. a multi.Manager collector) behind one /metrics.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
}

// WithIngestShards switches POST /streams/{name}/points from synchronous
// to sharded asynchronous ingest: each stream gets a bounded queue of
// `queue` batches drained by its own worker goroutine, so HTTP handlers
// only validate, assign arrival indices and enqueue — they never wait on
// sampler work. `workers` bounds how many stream workers apply batches
// concurrently (per-stream ordering is always preserved; the bound caps
// CPU, not correctness). Accepted batches return 202 with the stream's
// pending count; a full queue returns 429 with Retry-After and consumes
// nothing. Streams with the "timedecay" policy keep synchronous ingest:
// their timestamp validation must observe the sampler clock.
//
// Both arguments must be positive; servers built with this option must be
// Closed to stop the workers.
func WithIngestShards(workers, queue int) Option {
	return func(s *Server) {
		if workers <= 0 || queue <= 0 {
			return
		}
		s.ingestWorkers = workers
		s.ingestQueue = queue
	}
}

// WithDefaultPolicy sets the sampler family used when a create request
// omits "policy" (default "variable"). The name must be one of Policies;
// unknown names are ignored so a misconfigured option cannot change the
// daemon's behavior silently — validate with ValidPolicy first.
func WithDefaultPolicy(policy string) Option {
	return func(s *Server) {
		if ValidPolicy(policy) {
			s.defaultPolicy = policy
		}
	}
}

// Policies lists the sampler families a create request accepts, in the
// order the documentation presents them (the core sampler registry).
func Policies() []string { return core.Policies() }

// ValidPolicy reports whether name is a known sampler family.
func ValidPolicy(name string) bool { return core.ValidPolicy(name) }

// WithMaxBodyBytes bounds request bodies at n bytes (default 8 MiB).
// Oversized ingest/restore/create bodies are refused with 413 and a JSON
// error instead of being read into memory.
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBody = n
		}
	}
}

// New returns a Server; seed drives the samplers' randomness.
func New(seed uint64, opts ...Option) *Server {
	s := &Server{
		streams:       make(map[string]*managedStream),
		seeds:         xrand.New(seed),
		maxBody:       defaultMaxBodyBytes,
		defaultPolicy: "variable",
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.httpm = obs.NewHTTPMetrics(s.metrics, "biasedres")
	s.ingest = s.metrics.Counter("biasedres_points_ingested_total",
		"Stream points accepted over the ingest endpoint.", "stream")
	s.batchSize = s.metrics.Histogram("biasedres_ingest_batch_points",
		"Points per accepted ingest request (batch size distribution).",
		ingestBatchBuckets).With()
	s.rejected = s.metrics.Counter("biasedres_ingest_rejected_batches_total",
		"Ingest batches rejected with 429 because the stream's queue was full.", "stream")
	s.applied = s.metrics.Counter("biasedres_ingest_applied_batches_total",
		"Ingest batches applied to the sampler by the stream's worker.", "stream")
	if s.ingestWorkers > 0 {
		s.ingestSem = make(chan struct{}, s.ingestWorkers)
	}
	s.tierQueries = s.metrics.Counter("biasedres_tier_queries_total",
		"Queries routed to a tier of a multi-horizon stream, by tier index.", "stream", "tier")
	s.retRemoved = s.metrics.Counter("biasedres_tier_retention_removed_points_total",
		"Residents removed by the retention sweep (inclusion probability below -retention-floor).", "stream")
	s.metrics.Register(obs.CollectorFunc(s.collectStreams))
	s.metrics.Register(obs.CollectorFunc(s.collectIngest))
	s.metrics.Register(obs.CollectorFunc(s.collectTiers))
	s.metrics.Register(obs.CollectorFunc(s.collectModels))

	mux := http.NewServeMux()
	routes := []struct {
		pattern string
		handler http.HandlerFunc
	}{
		{"GET /healthz", s.handleHealth},
		{"GET /readyz", s.handleReady},
		{"GET /streams", s.handleList},
		{"PUT /streams/{name}", s.handleCreate},
		{"GET /streams/{name}", s.handleStats},
		{"DELETE /streams/{name}", s.handleDelete},
		{"POST /streams/{name}/points", s.handleIngest},
		{"GET /streams/{name}/sample", s.handleSample},
		{"GET /streams/{name}/query", s.handleQuery},
		{"GET /streams/{name}/range", s.handleRange},
		{"GET /streams/{name}/accum", s.handleAccum},
		{"GET /streams/{name}/snapshot", s.handleSnapshot},
		{"POST /streams/{name}/restore", s.handleRestore},
		{"GET /streams/{name}/transfer", s.handleTransferGet},
		{"POST /streams/{name}/transfer", s.handleTransferPost},
		{"POST /streams/{name}/model", s.handleModelCreate},
		{"GET /streams/{name}/model", s.handleModelGet},
		{"GET /streams/{name}/model/eval", s.handleModelEval},
		{"DELETE /streams/{name}/model", s.handleModelDelete},
	}
	for _, rt := range routes {
		mux.Handle(rt.pattern, s.instrument(rt.pattern, rt.handler))
	}
	mux.Handle("GET /metrics", s.instrument("GET /metrics", s.metrics.Handler()))
	s.mux = mux

	// Nothing can reach the server before New returns, so readiness opens
	// here: recovered streams then register through install exactly like
	// created ones.
	s.ready.Store(true)
	if s.durable != nil {
		s.metrics.Register(obs.CollectorFunc(s.durable.Collect))
		if err := s.recoverDurable(); err != nil && s.log != nil {
			// Per-file corruption was quarantined inside Recover; reaching
			// here means the data directory itself could not be scanned.
			// The server still serves, but nothing was recovered.
			s.log.Error("durability recovery failed", "error", err)
		}
		s.durStop = make(chan struct{})
		s.durWG.Add(1)
		go s.runDurability()
	}
	if s.retFloor > 0 {
		s.retStop = make(chan struct{})
		s.retWG.Add(1)
		go s.runRetention()
	}
	return s
}

// Metrics returns the server's registry so callers can add their own
// instruments or collectors to the same /metrics endpoint.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// instrument wraps a route handler with request metrics and, when a
// logger is configured, structured request logging.
func (s *Server) instrument(route string, h http.Handler) http.Handler {
	h = s.httpm.Wrap(route, h)
	if s.log == nil {
		return h
	}
	inner := h
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inner.ServeHTTP(w, r)
		s.log.Info("request",
			"route", route,
			"path", r.URL.Path,
			"remote", r.RemoteAddr,
			"duration", time.Since(start))
	})
}

// collectStreams exports per-stream sampler gauges at scrape time.
func (s *Server) collectStreams() []obs.Family {

	label := func(name string) []obs.Label { return []obs.Label{{Key: "stream", Value: name}} }
	processed := obs.Family{Name: "biasedres_stream_processed_total", Type: "counter",
		Help: "Stream points processed by the sampler (t)."}
	admitted := obs.Family{Name: "biasedres_stream_admitted_total", Type: "counter",
		Help: "Points that passed the p_in coin and entered the reservoir."}
	size := obs.Family{Name: "biasedres_stream_reservoir_size", Type: "gauge",
		Help: "Points currently resident in the reservoir."}
	capacity := obs.Family{Name: "biasedres_stream_reservoir_capacity", Type: "gauge",
		Help: "Reservoir slot budget."}
	fill := obs.Family{Name: "biasedres_stream_fill_fraction", Type: "gauge",
		Help: "Reservoir fill fraction F(t) in [0,1]."}
	pin := obs.Family{Name: "biasedres_stream_p_in", Type: "gauge",
		Help: "Current insertion probability p_in (policies that decay it)."}
	phases := obs.Family{Name: "biasedres_stream_reduction_phases_total", Type: "counter",
		Help: "p_in reduction phases run (variable policy)."}
	snapHits := obs.Family{Name: "biasedres_snapshot_cache_hits_total", Type: "counter",
		Help: "Snapshot reads served lock-free from the published snapshot."}
	snapMisses := obs.Family{Name: "biasedres_snapshot_cache_misses_total", Type: "counter",
		Help: "Snapshot reads that found the published snapshot stale or absent."}
	snapRebuilds := obs.Family{Name: "biasedres_snapshot_cache_rebuilds_total", Type: "counter",
		Help: "Snapshots rebuilt under the sampler lock (at most one per mutation)."}

	for _, ns := range s.streamList() {
		name, ms := ns.name, ns.ms
		ms.sm.View(func(sm core.Sampler) {
			processed.Samples = append(processed.Samples, obs.Sample{Labels: label(name), Value: float64(sm.Processed())})
			size.Samples = append(size.Samples, obs.Sample{Labels: label(name), Value: float64(sm.Len())})
			capacity.Samples = append(capacity.Samples, obs.Sample{Labels: label(name), Value: float64(sm.Capacity())})
			fill.Samples = append(fill.Samples, obs.Sample{Labels: label(name), Value: core.Fill(sm)})
			if a, ok := sm.(interface{ Admitted() uint64 }); ok {
				admitted.Samples = append(admitted.Samples, obs.Sample{Labels: label(name), Value: float64(a.Admitted())})
			}
			if p, ok := sm.(interface{ PIn() float64 }); ok {
				pin.Samples = append(pin.Samples, obs.Sample{Labels: label(name), Value: p.PIn()})
			}
			if ph, ok := sm.(interface{ Phases() int }); ok {
				phases.Samples = append(phases.Samples, obs.Sample{Labels: label(name), Value: float64(ph.Phases())})
			}
		})
		st := ms.sm.SnapshotStats()
		snapHits.Samples = append(snapHits.Samples, obs.Sample{Labels: label(name), Value: float64(st.Hits)})
		snapMisses.Samples = append(snapMisses.Samples, obs.Sample{Labels: label(name), Value: float64(st.Misses)})
		snapRebuilds.Samples = append(snapRebuilds.Samples, obs.Sample{Labels: label(name), Value: float64(st.Rebuilds)})
	}

	out := make([]obs.Family, 0, 10)
	for _, fam := range []obs.Family{processed, admitted, size, capacity, fill, pin, phases, snapHits, snapMisses, snapRebuilds} {
		if len(fam.Samples) > 0 {
			out = append(out, fam)
		}
	}
	return out
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// httpErrorIngested is httpError plus an "ingested" count for partial
// batch applies: how many points of the request were already sampled
// before the failure.
func httpErrorIngested(w http.ResponseWriter, code, ingested int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"error":    fmt.Sprintf(format, args...),
		"ingested": ingested,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody decodes a JSON request body bounded by the server's body
// limit, writing the HTTP error itself on failure: 413 with a JSON error
// when the body exceeds the limit, 400 for malformed JSON. It reports
// whether decoding succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", mbe.Limit)
			return false
		}
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

// namedStream pairs a stream with its registered name.
type namedStream struct {
	name string
	ms   *managedStream
}

// streamList snapshots the stream map, sorted by name, for the scrapes,
// sweeps and listings that must not hold s.mu while they work.
func (s *Server) streamList() []namedStream {
	s.mu.RLock()
	out := make([]namedStream, 0, len(s.streams))
	for name, ms := range s.streams {
		out = append(out, namedStream{name, ms})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func (s *Server) lookup(name string) (*managedStream, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ms, ok := s.streams[name]
	return ms, ok
}

// CreateRequest is the body of PUT /streams/{name}: core.SamplerConfig
// field for field, plus JSON names, so install converts it directly.
type CreateRequest struct {
	// Policy is one of "variable" (default), "biased", "constrained",
	// "unbiased", "window", "timedecay", "ttbs", "rtbs".
	Policy string `json:"policy"`
	// Lambda is the bias rate (biased policies).
	Lambda float64 `json:"lambda"`
	// Capacity is the reservoir budget; 0 derives ⌊1/λ⌋ for "biased".
	Capacity int `json:"capacity"`
	// Window is the window length for the "window" policy.
	Window uint64 `json:"window"`
	// Tiers, when > 1, turns the stream into a multi-horizon ladder: tier
	// i runs the stream's policy at λ/TierRatio^i, so horizon-carrying
	// queries can be routed to the tier covering them. Policies "variable",
	// "biased", "constrained" and "timedecay" support tiers; Capacity is
	// the per-tier budget.
	Tiers int `json:"tiers"`
	// TierRatio is the geometric spacing between tier λs (default 8).
	TierRatio float64 `json:"tier_ratio"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "empty stream name")
		return
	}
	var req CreateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Policy == "" {
		req.Policy = s.defaultPolicy
	}
	ms, code, err := s.install(name, req, nil, 1)
	if err != nil {
		httpError(w, code, "%v", err)
		return
	}
	capacity := ms.sm.Capacity()
	if s.log != nil {
		s.log.Info("stream created", "stream", name, "policy", req.Policy,
			"lambda", req.Lambda, "capacity", capacity)
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{"name": name, "policy": req.Policy, "capacity": capacity})
}

// install is the one path by which a stream comes to exist — create,
// startup recovery and transfer all call it. It builds the sampler for
// req, restores it from `from` (checkpoint plus journal tail) when given,
// makes it durable as checkpoint seq, starts its ingest lane and registers
// it under name. On failure it returns the HTTP status to answer with.
func (s *Server) install(name string, req CreateRequest, from *durable.Transfer, seq uint64) (*managedStream, int, error) {
	fresh, err := core.SamplerFactory(core.SamplerConfig(req))
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	ms := &managedStream{req: req, fresh: fresh}
	s.mu.Lock()
	rng := s.seeds.Split()
	s.mu.Unlock()
	sampler, err := fresh(rng)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("creating sampler: %w", err)
	}
	if from != nil {
		if err := sampler.UnmarshalBinary(from.Checkpoint.Snapshot); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("restoring snapshot: %w", err)
		}
		ms.next, ms.dim, err = replayTail(sampler, from.Tail, from.Checkpoint.Next, from.Checkpoint.Dim)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	ms.sm = core.NewSynchronized(sampler)
	ms.lastCkptVer = version(sampler)
	_, ms.timed = core.AsTimed(sampler)

	s.mu.Lock()
	defer s.mu.Unlock()
	// Close fails readiness before snapshotting the stream map; checking it
	// under s.mu means an install either lands before Close's snapshot (and
	// gets its shard closed and drained like every other stream) or is
	// refused here — never after, where its worker would leak and its
	// ingestWG.Add would race Close's Wait.
	if !s.ready.Load() {
		return nil, http.StatusServiceUnavailable, errors.New("not ready: recovering or shutting down")
	}
	if _, ok := s.streams[name]; ok {
		return nil, http.StatusConflict, fmt.Errorf("stream %q already exists", name)
	}
	if s.durable != nil {
		// A stream exists once a checkpoint of it is durable; a crash after
		// the install must not forget it.
		blob, err := sampler.MarshalBinary()
		if err == nil {
			err = s.durable.Attach(name, durable.Checkpoint{
				Seq: seq, Meta: durableMeta(name, req), Next: ms.next, Dim: ms.dim, Snapshot: blob})
		}
		if err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("checkpointing stream: %w", err)
		}
	}
	if s.ingestWorkers > 0 && !ms.timed {
		s.startIngestShard(name, ms)
	}
	s.streams[name] = ms
	return ms, 0, nil
}

// handleReady is GET /readyz: 200 once the server can take traffic
// (durability recovery finished, ingest shards accepting — i.e. New has
// returned) and 503 once Close has begun. Liveness stays on /healthz;
// readiness is the signal load balancers and the federation health
// checker should route on.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		httpError(w, http.StatusServiceUnavailable, "not ready: recovering or shutting down")
		return
	}
	s.mu.RLock()
	streams := len(s.streams)
	s.mu.RUnlock()
	writeJSON(w, map[string]any{"status": "ready", "streams": streams, "durable": s.durable != nil})
}

// handleAccum is GET /streams/{name}/accum: the stream's fused
// Horvitz–Thompson accumulator in wire form — per-shard terms a
// federation coordinator merges by summation rather than averaging final
// floats. Parameters: h (horizon), dim (defaults to the stream
// dimensionality), and optionally dims/lo/hi for the range-selectivity
// numerator. An empty stream answers a zero accumulator, not an error:
// merging decides whether the union has sample mass.
func (s *Server) handleAccum(w http.ResponseWriter, r *http.Request) {
	ms, ok := s.lookup(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", r.PathValue("name"))
		return
	}
	q := r.URL.Query()
	h, err := parseUint(q.Get("h"), 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad horizon: %v", err)
		return
	}
	ms.qmu.Lock()
	streamDim := ms.dim
	ms.qmu.Unlock()
	dim, err := parseUint(q.Get("dim"), uint64(streamDim))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad dim: %v", err)
		return
	}
	var rect *query.Rect
	if q.Get("dims") != "" {
		r, err := parseRect(q.Get("dims"), q.Get("lo"), q.Get("hi"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		rect = &r
	}
	snap, tier := ms.sm.SnapshotFor(h)
	s.countTierQuery(r.PathValue("name"), tier)
	writeJSON(w, query.AccumulateRange(snap, h, int(dim), rect).Wire())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	streams := len(s.streams)
	var points uint64
	for _, e := range s.streams {
		points += e.sm.Processed()
	}
	s.mu.RUnlock()
	out := map[string]any{"status": "ok", "streams": streams, "points": points}
	if wa, ok := s.wireAddr.Load().(string); ok && wa != "" {
		out["wire_addr"] = wa
	}
	writeJSON(w, out)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	list := s.streamList()
	names := make([]string, len(list))
	for i, ns := range list {
		names[i] = ns.name
	}
	writeJSON(w, map[string]any{"streams": names})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	ms, ok := s.streams[name]
	if !ok {
		s.mu.Unlock()
		httpError(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	delete(s.streams, name)
	s.mu.Unlock()
	// Stop the stream's ingest worker after it drains what was accepted;
	// in-flight requests that still hold the entry see the closed flag.
	closeShard(ms)
	if s.durable != nil {
		if err := s.durable.Remove(name); err != nil && s.log != nil {
			s.log.Warn("removing stream files failed", "stream", name, "error", err)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// IngestPoint is one point in an ingest request; arrival indices are
// assigned server-side in arrival order.
type IngestPoint struct {
	Values []float64 `json:"values"`
	Label  *int      `json:"label,omitempty"`
	Weight float64   `json:"weight,omitempty"`
	// TS is the point's timestamp, honoured by "timedecay" streams
	// (must be non-decreasing) and ignored by arrival-indexed policies.
	TS *float64 `json:"ts,omitempty"`
}

// IngestRequest is the body of POST /streams/{name}/points.
type IngestRequest struct {
	Points []IngestPoint `json:"points"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ms, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	var req IngestRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		httpError(w, http.StatusBadRequest, "no points")
		return
	}
	ms.qmu.Lock()
	// Validate the whole batch before touching the sampler so a bad point
	// rejects the request without a partial apply. The stream dimension is
	// only committed once validation has passed.
	dim := ms.dim
	for i, ip := range req.Points {
		if len(ip.Values) == 0 {
			ms.qmu.Unlock()
			httpError(w, http.StatusBadRequest, "point %d has no values", i)
			return
		}
		if dim == 0 {
			dim = len(ip.Values)
		} else if len(ip.Values) != dim {
			ms.qmu.Unlock()
			httpError(w, http.StatusBadRequest, "point %d has dim %d, stream has %d", i, len(ip.Values), dim)
			return
		}
	}
	// Each path releases qmu itself.
	switch {
	case ms.shard != nil:
		// Sharded fast path: enqueue for the stream's worker and return;
		// the sampler lock is never taken on this path.
		s.handleIngestAsync(w, name, ms, req, dim)
	case ms.timed:
		s.handleIngestTimed(w, name, ms, req, dim)
	default:
		s.handleIngestSync(w, name, ms, req, dim)
	}
}

// handleIngestSync applies a validated batch inline, the default mode.
// Called with ms.qmu held; releases it.
func (s *Server) handleIngestSync(w http.ResponseWriter, name string, ms *managedStream, req IngestRequest, dim int) {
	batch, next := ingestBatch(req.Points, ms.next)
	ms.next, ms.dim = next, dim
	processed := s.apply(name, ms, batch, ms.qmu.Unlock)
	s.countIngest(name, len(req.Points))
	writeJSON(w, map[string]any{"ingested": len(req.Points), "processed": processed})
}

// handleIngestTimed is the synchronous ingest of time-decay streams, the
// one special case beside apply: point timestamps must be non-decreasing
// and no older than the stream's clock, and points without one advance the
// clock by one unit (AddAt semantics). The check runs against the sampler
// clock before anything is applied, so a violation leaves no point
// sampled. Called with ms.qmu held; releases it.
func (s *Server) handleIngestTimed(w http.ResponseWriter, name string, ms *managedStream, req IngestRequest, dim int) {
	ops := make([]durable.Op, len(req.Points))
	for i, ip := range req.Points {
		ops[i] = durable.Op{P: ingestPoint(ms.next+uint64(i)+1, ip)}
		if ip.TS != nil {
			ops[i].TS, ops[i].HasTS = *ip.TS, true
		}
	}
	var bad, err error
	var applied int
	var processed uint64
	ms.sm.Update(func(sm core.Sampler) {
		td, _ := core.AsTimed(sm)
		clock := td.Now()
		for i, op := range ops {
			if !op.HasTS {
				clock++
				continue
			}
			if op.TS < clock {
				bad = fmt.Errorf("point %d: timestamp %v precedes the stream clock %v", i, op.TS, clock)
				return
			}
			clock = op.TS
		}
		// A sampler rejecting mid-batch is unreachable after the check; if
		// it happens, the applied prefix is journaled and reported so the
		// client can resume rather than resend.
		applied, err = applyOps(sm, ops)
		s.appendJournal(name, ops[:applied])
		processed = sm.Processed()
	})
	if bad != nil {
		ms.qmu.Unlock()
		httpError(w, http.StatusBadRequest, "%v", bad)
		return
	}
	ms.next += uint64(applied)
	ms.dim = dim
	ms.qmu.Unlock()
	if err != nil {
		httpErrorIngested(w, http.StatusBadRequest, applied, "point %d: %v", applied, err)
		return
	}
	if ms.model.Load() != nil {
		batch := make([]stream.Point, len(ops))
		for i := range ops {
			batch[i] = ops[i].P
		}
		s.observeModel(ms, batch)
	}
	s.countIngest(name, len(req.Points))
	writeJSON(w, map[string]any{"ingested": len(req.Points), "processed": processed})
}

// ingestBatch converts request points into a batch with provisional
// arrival indices after next, and returns the batch's last index.
func ingestBatch(pts []IngestPoint, next uint64) ([]stream.Point, uint64) {
	batch := make([]stream.Point, len(pts))
	for i, ip := range pts {
		next++
		batch[i] = ingestPoint(next, ip)
	}
	return batch, next
}

// ingestPoint converts one wire point into a stream.Point with the given
// arrival index, applying the label/weight defaults.
func ingestPoint(index uint64, ip IngestPoint) stream.Point {
	label := -1
	if ip.Label != nil {
		label = *ip.Label
	}
	weight := ip.Weight
	if weight == 0 {
		weight = 1
	}
	return stream.Point{Index: index, Values: ip.Values, Label: label, Weight: weight}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	ms, ok := s.lookup(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", r.PathValue("name"))
		return
	}
	ms.qmu.Lock()
	dim := ms.dim
	ms.qmu.Unlock()
	// Serve from the snapshot: no sampler lock, and nothing is held
	// during JSON encoding or the network write.
	snap := ms.sm.AcquireSnapshot()
	out := map[string]any{
		"policy":    ms.req.Policy,
		"lambda":    ms.req.Lambda,
		"dim":       dim,
		"processed": snap.T,
		"size":      snap.Len(),
		"capacity":  snap.Cap,
		"fill":      snap.Fill(),
		"pending":   ms.pending.Load(),
	}
	if tr := ms.sm.Tiered(); tr != nil {
		out["tiers"] = ms.tierInfo(tr)
	}
	writeJSON(w, out)
}

// SamplePoint is one reservoir point in a sample response.
type SamplePoint struct {
	Index  uint64    `json:"index"`
	Values []float64 `json:"values"`
	Label  int       `json:"label"`
	Prob   float64   `json:"prob"`
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	ms, ok := s.lookup(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", r.PathValue("name"))
		return
	}
	// The snapshot's probability slice was materialized once at capture
	// time, so the response costs no per-point InclusionProb calls and no
	// sampler lock at all on a cache hit.
	snap := ms.sm.AcquireSnapshot()
	out := make([]SamplePoint, len(snap.Points))
	for i := range snap.Points {
		p := &snap.Points[i]
		out[i] = SamplePoint{Index: p.Index, Values: p.Values, Label: p.Label, Prob: snap.Probs[i]}
	}
	writeJSON(w, map[string]any{"t": snap.T, "points": out})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ms, ok := s.lookup(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", r.PathValue("name"))
		return
	}
	q := r.URL.Query()
	h, err := parseUint(q.Get("h"), 0)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad horizon: %v", err)
		return
	}
	ms.qmu.Lock()
	streamDim := ms.dim
	ms.qmu.Unlock()
	// One snapshot serves the whole request: on a cache hit the handler
	// acquires no sampler lock, and the fused kernels answer every query
	// type in a single reservoir pass. Nothing is held during JSON
	// encoding or the network write. Tiered streams route the horizon to
	// the best-covering tier's snapshot.
	snap, tier := ms.sm.SnapshotFor(h)
	s.countTierQuery(r.PathValue("name"), tier)
	switch q.Get("type") {
	case "count":
		est, variance := query.EstimateWithVarianceOn(snap, query.Count(h))
		writeJSON(w, map[string]any{"estimate": est, "variance": variance})
	case "average":
		dim := streamDim
		if dim == 0 {
			httpError(w, http.StatusConflict, "stream has no points yet")
			return
		}
		avg, err := query.HorizonAverageOn(snap, h, dim)
		if err != nil {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, map[string]any{"average": avg})
	case "classdist":
		dist, err := query.ClassDistributionOn(snap, h)
		if err != nil {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		out := make(map[string]float64, len(dist))
		for k, v := range dist {
			out[strconv.Itoa(k)] = v
		}
		writeJSON(w, map[string]any{"distribution": out})
	case "groupavg":
		dim := streamDim
		if dim == 0 {
			httpError(w, http.StatusConflict, "stream has no points yet")
			return
		}
		groups, err := query.GroupAverageOn(snap, h, dim)
		if err != nil {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		out := make(map[string][]float64, len(groups))
		for k, v := range groups {
			out[strconv.Itoa(k)] = v
		}
		writeJSON(w, map[string]any{"groups": out})
	case "selectivity":
		rect, err := parseRect(q.Get("dims"), q.Get("lo"), q.Get("hi"))
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		sel, err := query.RangeSelectivityOn(snap, h, rect)
		if err != nil {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, map[string]any{"selectivity": sel})
	case "quantile":
		dim, err := parseUint(q.Get("dim"), 0)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad dim: %v", err)
			return
		}
		qq, err := strconv.ParseFloat(q.Get("q"), 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad q: %v", err)
			return
		}
		v, err := query.QuantileOn(snap, h, int(dim), qq)
		if err != nil {
			httpError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, map[string]any{"quantile": v})
	default:
		httpError(w, http.StatusBadRequest, "unknown query type %q", q.Get("type"))
	}
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ms, ok := s.lookup(r.PathValue("name"))
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", r.PathValue("name"))
		return
	}
	ck, err := s.cut(r.PathValue("name"), ms, nil)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Biasedres-Next-Index", strconv.FormatUint(ck.Next, 10))
	_, _ = w.Write(ck.Snapshot)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ms, ok := s.lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			httpError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d-byte limit", mbe.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if ms.pending.Load() != 0 {
		// Queued batches would replay on top of the restored state with
		// stale arrival indices; require a quiesced stream (see
		// docs/OPERATIONS.md, "Checkpoint and restore").
		httpError(w, http.StatusConflict,
			"stream %q has %d pending ingest points; retry once the queue drains", name, ms.pending.Load())
		return
	}
	// Deserialize and validate against a scratch sampler first: a corrupt
	// or inconsistent checkpoint must leave the live stream untouched.
	s.mu.Lock()
	rng := s.seeds.Split()
	s.mu.Unlock()
	restored, err := ms.fresh(rng)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "rebuilding sampler: %v", err)
		return
	}
	if err := restored.UnmarshalBinary(blob); err != nil {
		httpError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	dim, err := pointsDim(restored.Points())
	if err != nil {
		httpError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	ms.qmu.Lock()
	if p := ms.pending.Load(); p != 0 {
		// A batch was accepted between the earlier pending check and now;
		// re-refuse rather than let it replay onto restored state.
		ms.qmu.Unlock()
		httpError(w, http.StatusConflict,
			"stream %q has %d pending ingest points; retry once the queue drains", name, p)
		return
	}
	processed, size := restored.Processed(), restored.Len()
	ms.dim = dim
	ms.next = processed
	// Re-anchor durability on the restored state while the stream is
	// still quiesced: cut the journal in the same sampler-lock hold as the
	// swap (ops journaled before the restore must not replay on top of it)
	// and persist the uploaded snapshot itself as the new checkpoint
	// outside the locks.
	var ckpt *durable.Checkpoint
	ms.sm.Swap(restored, func() {
		if s.durable == nil {
			return
		}
		seq, err := s.durable.Rotate(name)
		if err != nil {
			if s.log != nil {
				s.log.Warn("journal rotation after restore failed", "stream", name, "error", err)
			}
			return
		}
		ms.lastCkptVer = version(restored)
		ckpt = &durable.Checkpoint{Seq: seq, Meta: durableMeta(name, ms.req), Next: ms.next, Dim: dim, Snapshot: blob}
	})
	ms.qmu.Unlock()
	if ckpt != nil {
		if err := s.durable.WriteCheckpoint(name, *ckpt); err != nil && s.log != nil {
			s.log.Warn("checkpoint after restore failed", "stream", name, "error", err)
		}
	}
	if s.log != nil {
		s.log.Info("stream restored", "stream", name, "processed", processed, "size", size, "dim", dim)
	}
	writeJSON(w, map[string]any{"processed": processed, "size": size})
}

// pointsDim derives the stream dimensionality from restored reservoir
// contents: the common Values length across all points (0 when the
// reservoir is empty or the points carry no values). Mixed
// dimensionalities mark a checkpoint from a different stream shape and
// are rejected — queries like average/groupavg would otherwise read out
// of range or silently mix spaces.
func pointsDim(pts []stream.Point) (int, error) {
	dim := 0
	for i, p := range pts {
		switch {
		case len(p.Values) == 0:
			continue
		case dim == 0:
			dim = len(p.Values)
		case len(p.Values) != dim:
			return 0, fmt.Errorf("inconsistent point dimensions: point %d has %d, earlier points have %d",
				i, len(p.Values), dim)
		}
	}
	return dim, nil
}

func parseUint(s string, def uint64) (uint64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseUint(s, 10, 64)
}

// parseRect builds the selectivity rectangle from the shared dims/lo/hi
// parameter format (the parser lives in internal/query so the federation
// coordinator speaks the same wire form).
func parseRect(dims, lo, hi string) (query.Rect, error) {
	return query.ParseRect(dims, lo, hi)
}
