package federation

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/httpapi"
)

// Live migration: POST /peers/drain moves every stream a departing node
// holds onto its next placement before the node leaves the registry.
// For each resident stream the coordinator ships one checkpoint — a live
// cut in checkpoint file bytes (GET /streams/{name}/transfer), which
// installs byte-identically on the destination — to the highest-
// ranked remaining peer that does not already hold it. The drained peer
// stays registered until every stream has shipped, so placement (which
// ranks over all registered peers) keeps routing reads at the source
// while the copy is in flight; removal flips the top-k to exactly the
// peers the data just landed on. A dead source falls back to a sibling
// replica as transfer origin, so draining a crashed node still restores
// its shards' replication factor.

// drainReport is the POST /peers/drain response body.
type drainReport struct {
	Drained  string            `json:"drained"`
	Removed  bool              `json:"removed"`
	Migrated []migratedStream  `json:"migrated"`
	Failed   map[string]string `json:"failed,omitempty"`
}

// migratedStream records one shipped stream.
type migratedStream struct {
	Stream string `json:"stream"`
	To     string `json:"to"`
	Bytes  int    `json:"bytes"`
}

func (co *Coordinator) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Addr string `json:"addr"`
	}
	if !httpapi.ReadJSON(w, r, maxBodyBytes, &req, "bad body: %v") {
		return
	}
	if req.Addr == "" {
		httpapi.Error(w, http.StatusBadRequest, "missing addr")
		return
	}
	norm := req.Addr
	if u, err := url.Parse(req.Addr); err == nil && u.Host != "" {
		norm = u.Scheme + "://" + u.Host
	}
	src, ok := co.peers.Get(norm)
	if !ok {
		httpapi.Error(w, http.StatusNotFound, "peer %q not registered", norm)
		return
	}

	co.drains.Inc()
	start := time.Now()
	report := co.drain(r.Context(), src)
	co.migrSeconds.Observe(time.Since(start).Seconds())

	if len(report.Failed) > 0 {
		// The peer stays registered: some of its data has no new home yet,
		// and removing it would shift reads onto replicas that miss it.
		httpapi.JSON(w, http.StatusBadGateway, report)
		return
	}
	report.Removed = co.removePeer(norm)
	if co.log != nil {
		co.log.Info("peer drained", "peer", norm, "migrated", len(report.Migrated))
	}
	httpapi.JSON(w, http.StatusOK, report)
}

// drain ships every stream src holds. The stream inventory prefers a
// live listing; a dead node falls back to the health checker's cached
// hint so its replicated shards can still be re-homed from siblings.
func (co *Coordinator) drain(ctx context.Context, src *peer) drainReport {
	report := drainReport{Drained: src.addr, Migrated: []migratedStream{}, Failed: map[string]string{}}

	lctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
	names, err := src.c.ListStreamsContext(lctx)
	cancel()
	if err != nil {
		src.mu.Lock()
		for n := range src.streams {
			names = append(names, n)
		}
		src.mu.Unlock()
		sort.Strings(names)
	}

	for _, name := range names {
		m, merr := co.migrateStream(ctx, src, name)
		if merr != nil {
			co.migrErrs.Inc()
			report.Failed[name] = merr.Error()
			if co.log != nil {
				co.log.Warn("stream migration failed", "stream", name, "from", src.addr, "error", merr)
			}
			continue
		}
		co.migrStreams.Inc()
		co.migrBytes.Add(uint64(m.Bytes))
		report.Migrated = append(report.Migrated, m)
	}
	return report
}

// migrateStream ships one stream off src: export its checkpoint (from
// src, or a sibling replica when src cannot answer), install it on the
// stream's next-ranked peer, then best-effort delete the source copy. A
// destination that already holds a stream by that name — per its hint,
// or answering 409 to the install — keeps its own copy, so src's copy is
// deleted and the stream counted as migrated only when that copy has
// processed at least as many points as the exported one; otherwise the
// migration fails and src keeps its data.
func (co *Coordinator) migrateStream(ctx context.Context, src *peer, name string) (migratedStream, error) {
	// The placement key of a shard replica is its federated shard key, so
	// the destination matches what placement() will answer once src is
	// gone; plain streams rank under their own name.
	key := name
	if base, shard, ok := parseShardStream(name); ok {
		key = shardKey(base, shard)
	}

	var remaining []*peer
	for _, p := range co.peerList() {
		if p.addr != src.addr {
			remaining = append(remaining, p)
		}
	}
	if len(remaining) == 0 {
		return migratedStream{}, errors.New("no remaining peers to migrate to")
	}

	blob, from, err := co.exportTransfer(ctx, src, name)
	if err != nil {
		return migratedStream{}, err
	}

	var lastErr error
	for _, dst := range rankPeers(key, remaining) {
		if !dst.isHealthy() {
			continue
		}
		dst.mu.Lock()
		holds := dst.hasStreams && dst.streams[name]
		dst.mu.Unlock()
		shipped := len(blob)
		if !holds {
			ictx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
			err := dst.c.InstallTransferContext(ictx, name, blob)
			cancel()
			var apiErr *client.APIError
			holds = errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict
			if err != nil && !holds {
				lastErr = err
				continue
			}
		}
		if holds {
			// A sibling replica, or a copy a backfill created after a
			// join: it replaces the exported one only if it is not behind.
			if err := co.caughtUp(ctx, from, dst, name); err != nil {
				return migratedStream{}, err
			}
			shipped = 0
		}
		// Mark the hint immediately so reads route to the new holder
		// before the next sweep.
		dst.mu.Lock()
		if dst.streams == nil {
			dst.streams = map[string]bool{}
		}
		dst.streams[name] = true
		dst.mu.Unlock()
		dctx, dcancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
		_ = src.c.DeleteStreamContext(dctx, name) // best-effort source cleanup
		dcancel()
		return migratedStream{Stream: name, To: dst.addr, Bytes: shipped}, nil
	}
	if lastErr == nil {
		lastErr = errors.New("no healthy destination peer")
	}
	return migratedStream{}, lastErr
}

// caughtUp checks that dst's copy of the stream has processed at least as
// many points as the copy on from, the peer that served the export.
func (co *Coordinator) caughtUp(ctx context.Context, from, dst *peer, name string) error {
	processed := func(p *peer) (uint64, error) {
		sctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
		defer cancel()
		st, err := p.c.StatsContext(sctx, name)
		if err != nil {
			return 0, fmt.Errorf("reading %s on %s: %w", name, p.addr, err)
		}
		return st.Processed, nil
	}
	want, err := processed(from)
	if err != nil {
		return err
	}
	have, err := processed(dst)
	if err != nil {
		return err
	}
	if have < want {
		return fmt.Errorf("%s already holds %s with %d points processed, behind the %d of the copy on %s",
			dst.addr, name, have, want, from.addr)
	}
	return nil
}

// exportTransfer fetches the stream's checkpoint bytes from src, falling
// back to any other healthy peer holding the same stream (a replica)
// when src cannot answer — the path that re-homes a crashed node's
// shards. It returns the peer that served the bytes.
func (co *Coordinator) exportTransfer(ctx context.Context, src *peer, name string) ([]byte, *peer, error) {
	tctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
	blob, err := src.c.TransferContext(tctx, name)
	cancel()
	if err == nil {
		return blob, src, nil
	}
	srcErr := err
	for _, p := range co.healthyPeers() {
		if p.addr == src.addr {
			continue
		}
		p.mu.Lock()
		holds := p.streams[name]
		p.mu.Unlock()
		if !holds {
			continue
		}
		tctx, cancel := context.WithTimeout(ctx, co.cfg.PeerTimeout)
		blob, err = p.c.TransferContext(tctx, name)
		cancel()
		if err == nil {
			return blob, p, nil
		}
	}
	return nil, nil, srcErr
}
