// Package server exposes the sampling library as an HTTP service: clients
// create named streams, push points, and query the recent past — the
// "repeatedly query recent behaviour while the stream runs forever" usage
// the paper's introduction motivates. The reservoird command wraps it in a
// binary; the package itself is transport-only so it is testable with
// net/http/httptest.
//
// API (all bodies JSON unless noted):
//
//	GET    /healthz                   liveness, stream and point counts
//	GET    /readyz                    readiness: 503 while recovering or shutting down
//	PUT    /streams/{name}            create a stream   {"lambda":1e-4,"capacity":1000,"policy":"variable"}
//	GET    /streams                   list streams
//	GET    /streams/{name}            stream statistics
//	DELETE /streams/{name}            drop a stream
//	POST   /streams/{name}/points     ingest            {"points":[{"values":[...],"label":0,"weight":1}, ...]}
//	GET    /streams/{name}/sample     current reservoir contents
//	GET    /streams/{name}/query      estimate; see Query parameters below
//	GET    /streams/{name}/range      bucketed estimates over [start,end)
//	GET    /streams/{name}/accum      fused HT accumulator (federation wire form)
//	GET    /streams/{name}/transfer   live checkpoint file bytes (octet-stream)
//	POST   /streams/{name}/restore    replace the stream's state with checkpoint file bytes
//	POST   /streams/{name}/transfer   install checkpoint file bytes as a new stream
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
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"biasedres/internal/core"
	"biasedres/internal/durable"
	"biasedres/internal/httpapi"
	"biasedres/internal/models"
	"biasedres/internal/obs"
	"biasedres/internal/query"
	"biasedres/internal/registry"
	"biasedres/internal/stream"
	"biasedres/internal/wire"
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
//     closed, and the hand-off onto the shard. admit holds it briefly.
//   - the sampler lock inside sm guards the sampler: applies (the shard
//     worker, or admit's inline apply), checkpoint cuts, restores.
//
// When both are needed (inline ingest, restore, cut) the order is
// always qmu → sampler lock. Reads are served from sm's snapshot caches
// without either lock.
type managedStream struct {
	name string
	qmu  sync.Mutex
	sm   *core.Synchronized
	// req is the stream's configuration, embedded in durable checkpoints
	// so recovery can rebuild the sampler.
	req  CreateRequest
	next uint64 // next arrival index; guarded by qmu
	dim  int    // fixed by the first ingested point; 0 = none yet; guarded by qmu
	// lastCkptVer is the sampler's mutation counter at the last durable
	// checkpoint; the checkpointer skips quiescent streams by comparing
	// it to the live counter. Guarded by the sampler lock.
	lastCkptVer uint64
	// shard is the stream's async ingest lane (nil when the server runs
	// synchronous ingest or the stream is time-decayed: its timestamp
	// check must observe the sampler clock); closed marks the stream shut
	// down for ingest, lane or not. pending counts points accepted onto
	// the lane but not yet applied to the sampler.
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
	// reg holds the streams by name, and the names of the installs and
	// deletes under way (see install and handleDelete).
	reg     *registry.Registry[*managedStream]
	seedMu  sync.Mutex // guards seeds
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

	// Durability layer (nil = in-memory only).
	durable *durable.Store
	dcfg    DurabilityConfig

	// stop ends the background loops (every), which loops tracks: the
	// journal sync, the checkpointer and the retention sweep.
	stop      chan struct{}
	loops     sync.WaitGroup
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
// omits "policy" (default "variable"). The name must be one of
// core.Policies; unknown names are ignored so a misconfigured option
// cannot change the daemon's behavior silently — validate with
// core.ValidPolicy first.
func WithDefaultPolicy(policy string) Option {
	return func(s *Server) {
		if core.ValidPolicy(policy) {
			s.defaultPolicy = policy
		}
	}
}

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
		reg:           registry.New[*managedStream](0),
		stop:          make(chan struct{}),
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
		{"GET /streams/{name}", s.onStream(s.handleStats)},
		{"DELETE /streams/{name}", s.handleDelete},
		{"POST /streams/{name}/points", s.onStream(s.handleIngest)},
		{"GET /streams/{name}/sample", s.onStream(s.handleSample)},
		{"GET /streams/{name}/query", s.onStream(s.handleQuery)},
		{"GET /streams/{name}/range", s.onStream(s.handleRange)},
		{"GET /streams/{name}/accum", s.onStream(s.handleAccum)},
		{"POST /streams/{name}/restore", s.onStream(s.handleRestore)},
		{"GET /streams/{name}/transfer", s.onStream(s.handleTransferGet)},
		{"POST /streams/{name}/transfer", s.handleTransferPost},
		{"POST /streams/{name}/model", s.onStream(s.handleModelCreate)},
		{"GET /streams/{name}/model", s.onStream(s.handleModelGet)},
		{"GET /streams/{name}/model/eval", s.onStream(s.handleModelEval)},
		{"DELETE /streams/{name}/model", s.onStream(s.handleModelDelete)},
	}
	for _, rt := range routes {
		mux.Handle(rt.pattern, s.instrument(rt.pattern, rt.handler))
	}
	mux.Handle("GET /metrics", s.instrument("GET /metrics", s.metrics.Handler()))
	s.mux = mux

	// Nothing can reach the server before New returns; readiness opens here.
	s.ready.Store(true)
	if s.durable != nil {
		s.metrics.Register(obs.CollectorFunc(s.durable.Collect))
		if err := s.recoverDurable(); err != nil && s.log != nil {
			// Per-file corruption was quarantined inside Recover; reaching
			// here means the data directory itself could not be scanned.
			// The server still serves, but nothing was recovered.
			s.log.Error("durability recovery failed", "error", err)
		}
		s.runDurability()
	}
	if s.retFloor > 0 {
		s.every(s.retInterval, s.sweepRetention)
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
	list := s.streamList()
	streams := make([]core.NamedStream, len(list))
	for i, ms := range list {
		streams[i] = core.NamedStream{Name: ms.name, S: ms.sm}
	}
	return core.StreamFamilies("biasedres_", streams)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// streamList returns the live streams in name order.
func (s *Server) streamList() []*managedStream { return s.reg.List() }

func (s *Server) lookup(name string) (*managedStream, bool) { return s.reg.Get(name) }

// onStream serves a route on the live stream its path names, looked up
// once for every such route; a name that is not live answers 404.
func (s *Server) onStream(h func(http.ResponseWriter, *http.Request, *managedStream)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ms, ok := s.lookup(r.PathValue("name"))
		if !ok {
			httpapi.Error(w, http.StatusNotFound, "stream %q not found", r.PathValue("name"))
			return
		}
		h(w, r, ms)
	}
}

// CreateRequest is the body of PUT /streams/{name}.
type CreateRequest = core.SamplerConfig

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		httpapi.Error(w, http.StatusBadRequest, "empty stream name")
		return
	}
	var req CreateRequest
	if !httpapi.ReadJSON(w, r, s.maxBody, &req, "decoding request: %v") {
		return
	}
	if req.Policy == "" {
		req.Policy = s.defaultPolicy
	}
	ms, code, err := s.install(name, req, nil, 1)
	if err != nil {
		httpapi.Error(w, code, "%v", err)
		return
	}
	capacity := ms.sm.Capacity()
	if s.log != nil {
		s.log.Info("stream created", "stream", name, "policy", req.Policy,
			"lambda", req.Lambda, "capacity", capacity)
	}
	httpapi.JSON(w, http.StatusCreated, map[string]any{"name": name, "policy": req.Policy, "capacity": capacity})
}

// install is the one path by which a stream comes to exist — create,
// startup recovery and transfer all call it. It builds the sampler for
// req, restored from `from` when given (a checkpoint, plus its journal
// tail on recovery) with its bookkeeping checked (newSampler), makes
// it durable as checkpoint seq, starts its ingest lane and registers it
// under name. On failure it returns the HTTP status to answer with.
//
// The durable checkpoint is written with the name reserved but no
// registry lock held: it costs file and directory fsyncs, and every
// stream's ingest lookup takes that lock.
func (s *Server) install(name string, req CreateRequest, from *durable.Recovered, seq uint64) (*managedStream, int, error) {
	ms := &managedStream{name: name, req: req}
	sampler, next, dim, err := s.newSampler(req, from)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	ms.next, ms.dim = next, dim
	ms.sm = core.NewSynchronized(sampler)
	ms.lastCkptVer = version(sampler)

	// A reserved name answers 409 to a second create and 404 to lookups
	// until the stream is published or abandoned.
	if err := s.reg.Reserve(name, req.Slots()); errors.Is(err, registry.ErrClosed) {
		return nil, http.StatusServiceUnavailable, errNotReady
	} else if err != nil {
		return nil, http.StatusConflict, err
	}
	if s.durable != nil {
		// A stream exists once a checkpoint of it is durable; a crash after
		// the install must not forget it.
		blob, err := sampler.MarshalBinary()
		if err == nil {
			err = s.durable.Attach(name, durable.Checkpoint{
				Seq: seq, Name: name, Config: req, Next: ms.next, Dim: ms.dim, Snapshot: blob})
		}
		if err != nil {
			s.reg.Abandon(name)
			return nil, http.StatusInternalServerError, fmt.Errorf("checkpointing stream: %w", err)
		}
	}
	if _, timed := core.AsTimed(sampler); s.ingestWorkers > 0 && !timed {
		s.startIngestShard(ms)
	}
	if s.reg.Publish(name, ms) != nil {
		// Close began while the checkpoint was written: the stream is not
		// registered, so nothing may be left to recover at restart.
		closeShard(ms)
		if s.durable != nil {
			if err := s.durable.Remove(name); err != nil && s.log != nil {
				s.log.Warn("removing refused stream's files failed", "stream", name, "error", err)
			}
		}
		s.reg.Abandon(name)
		return nil, http.StatusServiceUnavailable, errNotReady
	}
	return ms, 0, nil
}

var errNotReady = errors.New("not ready: recovering or shutting down")

// handleReady is GET /readyz: 200 once the server can take traffic
// (durability recovery finished, ingest shards accepting — i.e. New has
// returned) and 503 once Close has begun. Liveness stays on /healthz;
// readiness is the signal load balancers and the federation health
// checker should route on.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		httpapi.Error(w, http.StatusServiceUnavailable, "not ready: recovering or shutting down")
		return
	}
	httpapi.JSON(w, http.StatusOK, map[string]any{"status": "ready", "streams": s.reg.Len(), "durable": s.durable != nil})
}

// handleAccum is GET /streams/{name}/accum: the stream's fused
// Horvitz–Thompson accumulator in wire form — per-shard terms a
// federation coordinator merges by summation rather than averaging final
// floats. Parameters: h (horizon), dim (how many leading dimensions to
// sum; defaults to the stream dimensionality, which it may not exceed),
// and optionally dims/lo/hi for the range-selectivity numerator. An empty
// stream answers a zero accumulator, not an error: merging decides
// whether the union has sample mass.
func (s *Server) handleAccum(w http.ResponseWriter, r *http.Request, ms *managedStream) {
	q := r.URL.Query()
	h, err := parseUint(q.Get("h"), 0)
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "bad horizon: %v", err)
		return
	}
	dim, err := ms.sumDims(q.Get("dim"))
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	var rect *query.Rect
	if q.Get("dims") != "" {
		r, err := query.ParseRect(q.Get("dims"), q.Get("lo"), q.Get("hi"))
		if err != nil {
			httpapi.Error(w, http.StatusBadRequest, "%v", err)
			return
		}
		rect = &r
	}
	snap, tier := ms.sm.SnapshotFor(h)
	s.countTierQuery(r.PathValue("name"), tier)
	httpapi.JSON(w, http.StatusOK, query.Accumulate(snap, h, dim, rect))
}

// sumDims reads the dim parameter of /accum and /range: how many leading
// dimensions a walk sums. It defaults to the stream's dimensionality and
// may not exceed it, since each bucket or accumulator allocates dim sums.
func (ms *managedStream) sumDims(param string) (int, error) {
	ms.qmu.Lock()
	streamDim := ms.dim
	ms.qmu.Unlock()
	dim, err := parseUint(param, uint64(streamDim))
	if err != nil {
		return 0, fmt.Errorf("bad dim: %v", err)
	}
	if dim > uint64(streamDim) {
		return 0, fmt.Errorf("bad dim: %d exceeds the stream's dimensionality %d", dim, streamDim)
	}
	return int(dim), nil
}

// handleHealth reads each stream's count outside the registry lock:
// Processed waits on the stream's sampler lock, and a writer queued on the
// registry behind that wait would stall every stream's ingest lookup.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	list := s.streamList()
	out := httpapi.Health{Status: "ok", Streams: len(list)}
	for _, ms := range list {
		out.Points += ms.sm.Processed()
	}
	out.WireAddr, _ = s.wireAddr.Load().(string)
	httpapi.JSON(w, http.StatusOK, out)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	list := s.streamList()
	out := httpapi.StreamList{Streams: make([]string, len(list))}
	for i, ms := range list {
		out.Streams[i] = ms.name
	}
	httpapi.JSON(w, http.StatusOK, out)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// The name stays held until the files are gone, so a create of it
	// meanwhile answers 409 rather than attaching a chain the removal below
	// would take with it. Once Close has begun nothing is held, and
	// Abandon does nothing.
	ms, ok := s.reg.Remove(name, true)
	if !ok {
		httpapi.Error(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	// Stop the stream's ingest worker after it drains what was accepted;
	// in-flight requests that still hold the entry see the closed flag.
	closeShard(ms)
	if s.durable != nil {
		if err := s.durable.Remove(name); err != nil && s.log != nil {
			s.log.Warn("removing stream files failed", "stream", name, "error", err)
		}
	}
	s.reg.Abandon(name)
	w.WriteHeader(http.StatusNoContent)
}

// IngestPoint is one point in an ingest request; arrival indices are
// assigned server-side in arrival order.
type IngestPoint = wire.IngestPoint

// IngestRequest is the body of POST /streams/{name}/points.
type IngestRequest = wire.IngestRequest

// handleIngest is POST /streams/{name}/points: decode the body into a
// batch, admit it, and render the outcome — 200 with the stream position
// when applied inline, 202 with the pending count when queued, or the
// refusal's status.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, ms *managedStream) {
	b := getBatch()
	if err := wire.ReadIngest(http.MaxBytesReader(w, r.Body, s.maxBody), &b.f); err != nil {
		b.release()
		httpapi.BodyError(w, err, "decoding request: %v")
		return
	}
	n := b.f.Count
	a := s.admit(ms, b)
	switch {
	case a.err != nil:
		if a.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		httpapi.Error(w, a.status, "%v", a.err)
	case a.queued:
		w.Header().Set("X-Biasedres-Pending-Points", strconv.FormatInt(a.pending, 10))
		httpapi.JSON(w, http.StatusAccepted, httpapi.Queued{Pending: a.pending, Queued: n})
	default:
		httpapi.JSON(w, http.StatusOK, httpapi.Ingested{Ingested: n, Processed: a.processed})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request, ms *managedStream) {
	ms.qmu.Lock()
	dim := ms.dim
	ms.qmu.Unlock()
	// Serve from the snapshot: no sampler lock, and nothing is held
	// during JSON encoding or the network write.
	snap := ms.sm.AcquireSnapshot()
	out := httpapi.Stats{
		Capacity:  snap.Cap,
		Dim:       dim,
		Fill:      snap.Fill(),
		Lambda:    ms.req.Lambda,
		Pending:   ms.pending.Load(),
		Policy:    ms.req.Policy,
		Processed: snap.T,
		Size:      snap.Len(),
	}
	if tr := ms.sm.Tiered(); tr != nil {
		out.Tiers = ms.tierStats(tr)
	}
	httpapi.JSON(w, http.StatusOK, out)
}

func (s *Server) handleSample(w http.ResponseWriter, _ *http.Request, ms *managedStream) {
	// The snapshot's probability slice was materialized once at capture
	// time, so the response costs no per-point InclusionProb calls and no
	// sampler lock at all on a cache hit.
	httpapi.JSON(w, http.StatusOK, query.SampleOf(ms.sm.AcquireSnapshot()))
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, ms *managedStream) {
	req, err := query.ParseRequest(r.URL.Query())
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The walk sums dimensions only for the types that read them.
	dim := 0
	if req.ReadsSums() {
		ms.qmu.Lock()
		dim = ms.dim
		ms.qmu.Unlock()
	}
	// One snapshot serves the whole request: on a cache hit the handler
	// acquires no sampler lock, and one fused walk answers every linear
	// type. Nothing is held during JSON encoding or the network write.
	// Tiered streams route the horizon to the best-covering tier's
	// snapshot.
	snap, tier := ms.sm.SnapshotFor(req.H)
	s.countTierQuery(r.PathValue("name"), tier)
	var out map[string]any
	if req.Linear() {
		out, err = query.Answer(req.Type, query.Accumulate(snap, req.H, dim, req.Rect))
	} else {
		var v float64
		v, err = query.QuantileOn(snap, req.H, req.Dim, req.Q)
		out = map[string]any{"quantile": v}
	}
	if err != nil {
		httpapi.Error(w, http.StatusConflict, "%v", err)
		return
	}
	httpapi.JSON(w, http.StatusOK, out)
}

// handleRestore is POST /streams/{name}/restore: replace a stream's state
// with checkpoint bytes. The checkpoint restores into the stream's own
// configuration, and its checked (next, dim) become the stream's.
func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, ms *managedStream) {
	ck, ok := s.readCheckpoint(w, r, "restore")
	if !ok {
		return
	}
	// Build and check a scratch sampler first: a corrupt or inconsistent
	// checkpoint must leave the live stream untouched.
	restored, next, dim, err := s.newSampler(ms.req, &durable.Recovered{Checkpoint: ck})
	if err != nil {
		httpapi.Error(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	ms.qmu.Lock()
	if p := ms.pending.Load(); p != 0 {
		// Queued batches would replay on top of the restored state with
		// stale arrival indices; require a quiesced stream (see
		// docs/OPERATIONS.md, "Checkpoint and restore").
		ms.qmu.Unlock()
		httpapi.Error(w, http.StatusConflict,
			"stream %q has %d pending ingest points; retry once the queue drains", ms.name, p)
		return
	}
	processed, size := restored.Processed(), restored.Len()
	ms.next, ms.dim = next, dim
	// Re-anchor durability on the restored state while the stream is
	// still quiesced: cut the journal in the same sampler-lock hold as the
	// swap (ops journaled before the restore must not replay on top of it)
	// and persist the uploaded state as the new checkpoint outside the
	// locks.
	var ckpt *durable.Checkpoint
	ms.sm.Swap(restored, func() {
		if s.durable == nil {
			return
		}
		seq, err := s.durable.Rotate(ms.name)
		if err != nil {
			if s.log != nil {
				s.log.Warn("journal rotation after restore failed", "stream", ms.name, "error", err)
			}
			return
		}
		ms.lastCkptVer = version(restored)
		ckpt = &durable.Checkpoint{Seq: seq, Name: ms.name, Config: ms.req, Next: next, Dim: dim, Snapshot: ck.Snapshot}
	})
	ms.qmu.Unlock()
	if ckpt != nil {
		if err := s.durable.WriteCheckpoint(ms.name, *ckpt); err != nil && s.log != nil {
			s.log.Warn("checkpoint after restore failed", "stream", ms.name, "error", err)
		}
	}
	if s.log != nil {
		s.log.Info("stream restored", "stream", ms.name, "processed", processed, "size", size, "dim", dim)
	}
	httpapi.JSON(w, http.StatusOK, map[string]any{"processed": processed, "size": size})
}

// newSampler builds a scratch sampler of cfg on the next split of the
// server's seed source and, when from is non-nil, restores it from from's
// checkpoint through core.Restore and returns the (next, dim) bookkeeping
// resume checks. Create, recovery, transfer and restore all build their
// sampler here, so a checkpoint that runs another capacity, λ or window
// than the stream's configuration, or whose bookkeeping its sample
// contradicts, never reaches a live stream.
func (s *Server) newSampler(cfg CreateRequest, from *durable.Recovered) (sampler core.PersistentSampler, next uint64, dim int, err error) {
	fresh, err := core.SamplerFactory(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	s.seedMu.Lock()
	rng := s.seeds.Split()
	s.seedMu.Unlock()
	if sampler, err = fresh(rng); err != nil {
		return nil, 0, 0, fmt.Errorf("creating sampler: %w", err)
	}
	if from != nil {
		if err = core.Restore(sampler, from.Checkpoint.Snapshot); err == nil {
			next, dim, err = resume(sampler, from)
		}
	}
	return sampler, next, dim, err
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
