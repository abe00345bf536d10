package federation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"biasedres/internal/client"
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

	rr atomic.Uint64 // round-robin cursor for shard assignment
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
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req createStreamRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad body: %v", err)
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
		httpError(w, http.StatusConflict, "stream %q already exists", name)
		return
	}
	if len(co.peerList()) == 0 {
		httpError(w, http.StatusServiceUnavailable, "no peers registered")
		return
	}

	// Create every shard replica; a shard whose every replica refused
	// fails the create. An existing shard stream (409) counts as created —
	// PUT converges.
	var failed []string
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
		created := 0
		for _, o := range outs {
			if o.err == nil && !o.notFound {
				created++
			}
		}
		if created == 0 {
			failed = append(failed, shardStream(name, shard))
		}
	}
	if len(failed) > 0 {
		httpError(w, http.StatusBadGateway,
			"no replica accepted shards %v; stream not registered", failed)
		return
	}

	fs := &fedStream{shards: shards, replicas: replicas, cfg: req.StreamConfig, hasCfg: true}
	co.mu.Lock()
	if co.createConflicts(name, shards) {
		co.mu.Unlock()
		httpError(w, http.StatusConflict, "stream %q already exists", name)
		return
	}
	co.fstreams[name] = fs
	co.mu.Unlock()
	if co.log != nil {
		co.log.Info("federated stream created", "stream", name, "shards", shards, "replicas", replicas)
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, map[string]any{"name": name, "shards": shards, "replicas": replicas})
}

func (co *Coordinator) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	fs, ok := co.lookupFed(name)
	if !ok {
		httpError(w, http.StatusNotFound, "stream %q not found", name)
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
	writeJSON(w, map[string]any{"deleted": name})
}

// --- replicated ingest ---

func (co *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	fs, ok := co.lookupFed(name)
	if !ok {
		httpError(w, http.StatusNotFound,
			"stream %q is not a federated stream; create it through the coordinator first", name)
		return
	}
	var req struct {
		Points []client.Point `json:"points"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	if len(req.Points) == 0 {
		writeJSON(w, map[string]any{"ingested": 0})
		return
	}
	if err := co.ingestFed(r.Context(), name, fs, req.Points); err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, map[string]any{"ingested": len(req.Points)})
}

// ingestFed round-robins the batch across the stream's shards and writes
// each shard's sub-batch to all its replicas concurrently. It succeeds
// when every non-empty shard was acknowledged by at least one replica —
// the durability floor a kill-one-node test relies on.
func (co *Coordinator) ingestFed(ctx context.Context, name string, fs *fedStream, pts []client.Point) error {
	shards := fs.shards
	if shards < 1 {
		shards = 1
	}
	start := fs.rr.Add(uint64(len(pts))) - uint64(len(pts))
	byShard := make([][]client.Point, shards)
	for i, p := range pts {
		s := int((start + uint64(i)) % uint64(shards))
		byShard[s] = append(byShard[s], p)
	}

	var wg sync.WaitGroup
	errs := make([]error, shards)
	for shard, sub := range byShard {
		if len(sub) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, sub []client.Point) {
			defer wg.Done()
			errs[shard] = co.ingestShard(ctx, name, fs, shard, sub)
		}(shard, sub)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ingestShard writes one shard's sub-batch to every healthy replica of
// its placement. A replica that 404s (a backfilled node that has not
// seen this stream yet) gets the stream created and the batch resent
// once, when the coordinator knows the config.
func (co *Coordinator) ingestShard(ctx context.Context, name string, fs *fedStream, shard int, sub []client.Point) error {
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
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, p := range targets {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			err := co.pushReplica(ctx, p, ss, sub)
			if err != nil {
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
			}
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				acks++
				co.replicaWrites.With(p.addr).Inc()
			} else {
				co.replicaWriteErrs.With(p.addr).Inc()
				if firstErr == nil {
					firstErr = fmt.Errorf("replica %s: %w", p.addr, err)
				}
			}
		}(p)
	}
	wg.Wait()
	if acks == 0 {
		if firstErr == nil {
			firstErr = fmt.Errorf("no replicas reachable")
		}
		return fmt.Errorf("shard %s: no replica acknowledged the batch: %w", ss, firstErr)
	}
	return nil
}

// pushReplica sends one sub-batch to a replica, preferring the binary
// wire path when the peer advertises one and falling back to HTTP.
func (co *Coordinator) pushReplica(ctx context.Context, p *peer, stream string, pts []client.Point) error {
	pctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
	defer cancel()
	if wa := p.getWireAddr(); wa != "" {
		if wc := co.wireConnFor(p.addr, wa); wc != nil {
			if err := wc.PushContext(pctx, stream, pts); err == nil {
				return nil
			}
			// Wire failed (listener gone, frame refused): HTTP decides.
		}
	}
	_, err := p.c.PushContext(pctx, stream, pts)
	return err
}

// wireConnFor returns (dialing if needed) the pooled WireConn for a
// peer. A dial failure caches nothing and returns nil — callers fall
// back to HTTP and the next push retries the dial.
func (co *Coordinator) wireConnFor(peerAddr, wireAddr string) *client.WireConn {
	co.wmu.Lock()
	defer co.wmu.Unlock()
	if wc, ok := co.wires[peerAddr]; ok {
		return wc
	}
	wc, err := client.DialWire(wireAddr, client.WireConnConfig{
		DialTimeout: co.cfg.PeerTimeout,
		MaxRetries:  2,
	})
	if err != nil {
		return nil
	}
	co.wires[peerAddr] = wc
	return wc
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

// IngestFrame implements wire.Sink: a coordinator can front a wire
// listener of its own, fanning each binary frame out exactly like the
// HTTP ingest path. Backpressure from every replica of a shard surfaces
// as a NACK (the client resends); anything else that leaves a shard
// unacknowledged is an authoritative error. A frame with explicit
// indices (each shard sequences its own points) or a NaN or ±Inf value
// or weight is refused before the fan-out, so no shard applies a part of
// it that the client's resend would duplicate.
func (co *Coordinator) IngestFrame(f *wire.Frame) wire.Reply {
	name := string(f.Name)
	fs, ok := co.lookupFed(name)
	if !ok {
		return wire.Errorf("stream %q is not a federated stream", name)
	}
	if f.Indices != nil {
		return wire.Errorf("stream %q is federated: its shards sequence points, so a frame cannot carry indices", name)
	}
	pts := make([]client.Point, f.Count)
	for i := 0; i < f.Count; i++ {
		v, label, weight := f.Point(i)
		bad := math.IsNaN(weight) || math.IsInf(weight, 0)
		for _, x := range v {
			bad = bad || math.IsNaN(x) || math.IsInf(x, 0)
		}
		if bad {
			return wire.Errorf("point %d has a non-finite value or weight", i)
		}
		pts[i] = client.Point{Values: v, Weight: weight}
		if label >= 0 {
			l := int(label)
			pts[i].Label = &l
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.PeerTimeout)
	defer cancel()
	if err := co.ingestFed(ctx, name, fs, pts); err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
			retry := apiErr.RetryAfter.Milliseconds()
			if retry < 0 {
				retry = 0
			}
			if retry > 65535 {
				retry = 65535
			}
			return wire.Nack(uint16(retry))
		}
		return wire.Errorf("%v", err)
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
