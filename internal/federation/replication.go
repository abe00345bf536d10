package federation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/httpapi"
	"biasedres/internal/wire"
)

// Replication: a stream created through the coordinator is split into
// Shards round-robin sub-streams, and every shard is written to
// Replication placement-chosen peers (internal/federation/placement.go).
// The ingest fan-out acks once every shard landed on at least one
// replica; reads gather each shard from its replicas concurrently and
// keep exactly one response per shard — the most advanced by stream
// position — so the merged Horvitz–Thompson estimate counts every point
// exactly once no matter how many replicas answered. Killing any single
// node (with Replication ≥ 2) therefore leaves queries whole:
// partial:false, estimates unchanged.

// fedStream is one coordinator-managed stream.
type fedStream struct {
	shards   int
	replicas int

	mu     sync.Mutex
	cfg    client.StreamConfig
	hasCfg bool // cfg known (created through this coordinator), enabling 404 backfill

	rr  atomic.Uint64 // round-robin cursor for shard assignment
	dim atomic.Int64  // point dimensionality, fixed by the first batch a shard applied (0 until then)
}

func (fs *fedStream) config() (client.StreamConfig, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.cfg, fs.hasCfg
}

// lookupFed returns the managed stream registered under name.
func (co *Coordinator) lookupFed(name string) (*fedStream, bool) {
	co.mu.RLock()
	defer co.mu.RUnlock()
	fs, ok := co.fstreams[name]
	return fs, ok
}

// fedList snapshots the managed-stream registry.
func (co *Coordinator) fedList() map[string]*fedStream {
	co.mu.RLock()
	defer co.mu.RUnlock()
	out := make(map[string]*fedStream, len(co.fstreams))
	for name, fs := range co.fstreams {
		out[name] = fs
	}
	return out
}

// adoptHinted rebuilds managed-stream entries from the shard-replica
// names ("<stream>@<shard>") the health sweeps scrape off data nodes — a
// restarted coordinator relearns what exists without any local state.
// The config stays unknown (no 404 backfill) until a create names it.
func (co *Coordinator) adoptHinted() {
	shardsOf := map[string]int{}
	for _, p := range co.peerList() {
		p.mu.Lock()
		for s := range p.streams {
			if name, shard, ok := parseShardStream(s); ok && shard+1 > shardsOf[name] {
				shardsOf[name] = shard + 1
			}
		}
		p.mu.Unlock()
	}
	if len(shardsOf) == 0 {
		return
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	for name, shards := range shardsOf {
		if cur, ok := co.fstreams[name]; ok {
			if shards > cur.shards {
				cur.shards = shards
			}
			continue
		}
		co.fstreams[name] = &fedStream{shards: shards, replicas: co.cfg.Replication}
		if co.log != nil {
			co.log.Info("adopted federated stream from peer hints", "stream", name, "shards", shards)
		}
	}
}

// --- create / delete ---

// createStreamRequest is the coordinator's PUT body: a node StreamConfig
// plus the federation shape.
type createStreamRequest struct {
	client.StreamConfig
	Shards   int `json:"shards,omitempty"`
	Replicas int `json:"replicas,omitempty"`
}

// createConflicts reports whether a create of name with the given shard
// count must answer 409. A stream created through a coordinator conflicts.
// An entry adopted from peer hints alone (no config) does not, as long as
// it hints no more shards than the create asks for: a health sweep can
// adopt the first shards of a create still in flight, and the create then
// completes that entry with its own shape and config. Called with co.mu
// held.
func (co *Coordinator) createConflicts(name string, shards int) bool {
	fs, ok := co.fstreams[name]
	if !ok {
		return false
	}
	_, hasCfg := fs.config()
	return hasCfg || fs.shards > shards
}

func (co *Coordinator) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validFederatedName(name); err != nil {
		httpapi.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req createStreamRequest
	if !httpapi.ReadJSON(w, r, maxBodyBytes, &req, "bad body: %v") {
		return
	}
	shards, replicas := req.Shards, req.Replicas
	if shards <= 0 {
		shards = co.cfg.Shards
	}
	if replicas <= 0 {
		replicas = co.cfg.Replication
	}
	co.mu.RLock()
	conflict := co.createConflicts(name, shards)
	co.mu.RUnlock()
	if conflict {
		httpapi.Error(w, http.StatusConflict, "stream %q already exists", name)
		return
	}
	if len(co.peerList()) == 0 {
		httpapi.Error(w, http.StatusServiceUnavailable, "no peers registered")
		return
	}

	// Create every shard replica; a shard whose every replica refused
	// fails the create. An existing shard stream (409) counts as created —
	// PUT converges. When every replica of a failed shard refused with a
	// 4xx, the request itself is bad: answer 400 with a node's reason.
	var failed []string
	refusal := ""
	for shard := 0; shard < shards; shard++ {
		outs := fanOut(r.Context(), co, co.placement(name, shard, replicas),
			func(ctx context.Context, p *peer) (struct{}, error) {
				err := p.c.CreateStreamContext(ctx, shardStream(name, shard), req.StreamConfig)
				var apiErr *client.APIError
				if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict {
					err = nil
				}
				return struct{}{}, err
			})
		created, refused, reason := 0, 0, ""
		for _, o := range outs {
			var apiErr *client.APIError
			switch {
			case o.err == nil && !o.notFound:
				created++
			case errors.As(o.err, &apiErr) && apiErr.StatusCode/100 == 4:
				refused, reason = refused+1, apiErr.Message
			}
		}
		if created == 0 {
			failed = append(failed, shardStream(name, shard))
			if refused == len(outs) {
				refusal = reason
			}
		}
	}
	if refusal != "" {
		httpapi.Error(w, http.StatusBadRequest, "%s", refusal)
		return
	}
	if len(failed) > 0 {
		httpapi.Error(w, http.StatusBadGateway,
			"no replica accepted shards %v; stream not registered", failed)
		return
	}

	fs := &fedStream{shards: shards, replicas: replicas, cfg: req.StreamConfig, hasCfg: true}
	co.mu.Lock()
	if co.createConflicts(name, shards) {
		co.mu.Unlock()
		httpapi.Error(w, http.StatusConflict, "stream %q already exists", name)
		return
	}
	co.fstreams[name] = fs
	co.mu.Unlock()
	if co.log != nil {
		co.log.Info("federated stream created", "stream", name, "shards", shards, "replicas", replicas)
	}
	httpapi.JSON(w, http.StatusCreated, map[string]any{"name": name, "shards": shards, "replicas": replicas})
}

func (co *Coordinator) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	fs, ok := co.lookupFed(name)
	if !ok {
		httpapi.Error(w, http.StatusNotFound, "stream %q not found", name)
		return
	}
	co.mu.Lock()
	delete(co.fstreams, name)
	co.mu.Unlock()
	// Best-effort: drop every shard replica wherever placement may have
	// put it (including past placements still hinted on peers).
	for shard := 0; shard < fs.shards; shard++ {
		ss := shardStream(name, shard)
		fanOut(r.Context(), co, co.peerList(), func(ctx context.Context, p *peer) (struct{}, error) {
			return struct{}{}, p.c.DeleteStreamContext(ctx, ss)
		})
	}
	if co.log != nil {
		co.log.Info("federated stream deleted", "stream", name)
	}
	httpapi.JSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// --- replicated ingest ---

// admission is admit's outcome: status 0 when every shard acknowledged
// the batch, else the HTTP status that renders the refusal (404, 400, 429
// or 503) and, on 429, the node's retry hint.
type admission struct {
	status int
	err    error
	retry  time.Duration
}

func refuse(status int, format string, args ...any) admission {
	return admission{status: status, err: fmt.Errorf(format, args...)}
}

// severity orders refusal statuses by what the client should do next:
// after a 400 no resend can succeed, after a 429 one will once the hint
// has passed, and a 503 is the rest.
var severity = map[int]int{http.StatusServiceUnavailable: 1, http.StatusTooManyRequests: 2, http.StatusBadRequest: 3}

// admit is the one admission step of the coordinator's HTTP and wire
// ingest. Before any fan-out it refuses a batch wire's Check refuses or of
// a dimension other than the stream's: a shard would refuse its part while
// the others applied theirs, and shards of two dimensions merge into a
// silently wrong estimate. It then splits the batch round-robin into
// per-shard frames and writes each to all its shard's replicas
// concurrently. The batch is accepted when every part was acknowledged by
// some replica. Otherwise a node's refusal is 400, backpressure is 429 and
// anything else 503; the other shards may have applied their parts.
func (co *Coordinator) admit(ctx context.Context, name string, f *wire.Frame) admission {
	fs, ok := co.lookupFed(name)
	if !ok {
		return refuse(http.StatusNotFound,
			"stream %q is not a federated stream; create it through the coordinator first", name)
	}
	if err := f.Check(); err != nil {
		return refuse(http.StatusBadRequest, "%v", err)
	}
	if d := fs.dim.Load(); d != 0 && d != int64(f.Dim) {
		return refuse(http.StatusBadRequest, "batch has dim %d, stream has %d", f.Dim, d)
	}

	n, shards := uint64(f.Count), max(fs.shards, 1)
	parts := partsPool.Get().(*[]wire.Frame)
	defer partsPool.Put(parts)
	*parts = slices.Grow((*parts)[:0], shards)[:shards]
	f.Split(*parts, fs.rr.Add(n)-n)
	outs := make([]admission, len(*parts))
	var wg sync.WaitGroup
	for shard := range *parts {
		if part := &(*parts)[shard]; part.Count > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[shard] = co.ingestShard(ctx, name, fs, shard, part)
			}()
		}
	}
	wg.Wait()
	var worst admission
	for shard, a := range outs {
		if a.status == 0 && (*parts)[shard].Count > 0 {
			// A shard that applied its part fixes the stream's dim.
			fs.dim.CompareAndSwap(0, int64(f.Dim))
		}
		if severity[a.status] > severity[worst.status] {
			worst = a
		}
	}
	return worst
}

// partsPool recycles the per-shard frames admit deals batches into.
var partsPool = sync.Pool{New: func() any { return new([]wire.Frame) }}

// ingestShard writes one shard's sub-batch to every healthy replica of
// its placement. A replica that 404s (a backfilled node that has not
// seen this stream yet) gets the stream created and the batch resent
// once, when the coordinator knows the config. When no replica
// acknowledged, it returns the most telling replica failure.
func (co *Coordinator) ingestShard(ctx context.Context, name string, fs *fedStream, shard int, sub *wire.Frame) admission {
	replicas := co.placement(name, shard, fs.replicas)
	targets := make([]*peer, 0, len(replicas))
	for _, p := range replicas {
		if p.isHealthy() {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		// Placement is down per the health checker; try everyone anyway
		// rather than dropping the batch on a stale health verdict.
		targets = replicas
	}
	ss := shardStream(name, shard)
	acks := 0
	worst := refuse(http.StatusServiceUnavailable, "no replicas reachable")
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range targets {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			err := co.pushReplica(ctx, p, ss, sub)
			var apiErr *client.APIError
			if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
				if cfg, ok := fs.config(); ok {
					cctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
					cerr := p.c.CreateStreamContext(cctx, ss, cfg)
					cancel()
					if cerr == nil {
						err = co.pushReplica(ctx, p, ss, sub)
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				acks++
				co.replicaWrites.With(p.addr).Inc()
				return
			}
			co.replicaWriteErrs.With(p.addr).Inc()
			if a := pushFailure(p.addr, err); severity[a.status] >= severity[worst.status] {
				worst = a
			}
		}(p)
	}
	wg.Wait()
	if acks > 0 {
		return admission{}
	}
	worst.err = fmt.Errorf("shard %s: no replica acknowledged the batch: %w", ss, worst.err)
	return worst
}

// pushFailure classifies one replica's failed push: a node's refusal
// (a 4xx other than 404 and 429) is 400, backpressure is 429 with the
// node's hint, and anything else is 503.
func pushFailure(addr string, err error) admission {
	a := admission{status: http.StatusServiceUnavailable, err: fmt.Errorf("replica %s: %w", addr, err)}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		switch code := apiErr.StatusCode; {
		case code == http.StatusTooManyRequests:
			a.status, a.retry = code, apiErr.RetryAfter
		case code >= 400 && code < 500 && code != http.StatusNotFound:
			a.status = http.StatusBadRequest
		}
	}
	return a
}

// pushReplica sends one shard's frame to a replica: as a frame when the
// peer advertises a wire listener, else over HTTP. HTTP carries a batch
// meant for the wire only when the frame consumed nothing: no connection
// could be dialed, or the frame was refused whole (*client.WireError), by
// WireConn before sending or by the node, whose HTTP answer then drives
// the 404 backfill. After any other wire failure the frame may have been
// applied, so the error is final; unless it was backpressure, the pooled
// conn is dropped so the next push dials the peer's current address.
func (co *Coordinator) pushReplica(ctx context.Context, p *peer, stream string, f *wire.Frame) error {
	pctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
	defer cancel()
	if wc := co.wireConnFor(p); wc != nil {
		err := wc.PushFrameContext(pctx, stream, f)
		var refused *client.WireError
		if !errors.As(err, &refused) {
			var busy *client.APIError
			if err != nil && !errors.As(err, &busy) {
				co.dropWireConn(p.addr, wc)
			}
			return err
		}
	}
	_, err := p.c.PushContext(pctx, stream, f.IngestPoints())
	return err
}

// wireConnFor returns the pooled WireConn of a peer that advertises a
// wire listener, dialing its advertised address when none is pooled. It
// returns nil when the peer advertises none or the dial fails; a failed
// dial caches nothing, so the next push dials again.
func (co *Coordinator) wireConnFor(p *peer) *client.WireConn {
	wa := p.getWireAddr()
	if wa == "" {
		return nil
	}
	co.wmu.Lock()
	defer co.wmu.Unlock()
	if wc, ok := co.wires[p.addr]; ok {
		return wc
	}
	wc, err := client.DialWire(wa, client.WireConnConfig{DialTimeout: co.cfg.PeerTimeout, MaxRetries: 2})
	if err != nil {
		return nil
	}
	co.wires[p.addr] = wc
	return wc
}

// dropWireConn unpools and closes a peer's conn.
func (co *Coordinator) dropWireConn(addr string, wc *client.WireConn) {
	co.wmu.Lock()
	if co.wires[addr] == wc {
		delete(co.wires, addr)
	}
	co.wmu.Unlock()
	wc.Close()
}

// dropWireConns closes every pooled wire connection (Close path).
func (co *Coordinator) dropWireConns() {
	co.wmu.Lock()
	defer co.wmu.Unlock()
	for addr, wc := range co.wires {
		wc.Close()
		delete(co.wires, addr)
	}
}

func (co *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	var f wire.Frame
	if err := wire.ReadIngest(http.MaxBytesReader(w, r.Body, maxBodyBytes), &f); err != nil {
		httpapi.BodyError(w, err, "bad body: %v")
		return
	}
	a := co.admit(r.Context(), r.PathValue("name"), &f)
	if a.err != nil {
		if a.status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(max(1, int(math.Ceil(a.retry.Seconds())))))
		}
		httpapi.Error(w, a.status, "%v", a.err)
		return
	}
	httpapi.JSON(w, http.StatusOK, httpapi.Ingested{Ingested: f.Count})
}

// IngestFrame implements wire.Sink: a coordinator can front a wire
// listener of its own. It refuses a frame with explicit indices (each
// shard sequences its own points) and hands the frame to admit.
// Backpressure is a NACK with the node's retry hint, so the client
// resends; any other refusal is an error reply.
func (co *Coordinator) IngestFrame(f *wire.Frame) wire.Reply {
	if f.Indices != nil || f.First != 0 {
		return wire.Errorf("stream %q is federated: its shards sequence points, so a frame cannot carry indices", f.Name)
	}
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.PeerTimeout)
	defer cancel()
	a := co.admit(ctx, string(f.Name), f)
	switch {
	case a.status == http.StatusTooManyRequests:
		return wire.Nack(uint16(min(a.retry.Milliseconds(), math.MaxUint16)))
	case a.err != nil:
		return wire.Errorf("%v", a.err)
	}
	return wire.Ack(0)
}

// fedStreamNames folds shard-replica names back into their federated
// stream for the GET /streams union.
func fedStreamNames(raw map[string]bool, managed map[string]*fedStream) []string {
	union := map[string]bool{}
	for name := range raw {
		if base, _, ok := parseShardStream(name); ok {
			union[base] = true
		} else {
			union[name] = true
		}
	}
	for name := range managed {
		union[name] = true
	}
	names := make([]string, 0, len(union))
	for name := range union {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
