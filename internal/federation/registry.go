package federation

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"

	"biasedres/internal/client"
	"biasedres/internal/httpapi"
	"biasedres/internal/obs"
)

// peer is one data node in the registry. Health state is mutated only by
// the health checker; the stream set is a routing hint refreshed on each
// probe. A hands-on stream is read from the peers whose hint names it, so
// one created since the last sweep is served from the next; a peer whose
// set has never been fetched is always included.
type peer struct {
	addr string
	c    *client.Client

	mu         sync.Mutex
	healthy    bool
	up, down   int // consecutive probe successes / failures
	streams    map[string]bool
	hasStreams bool // the stream set has been fetched at least once
	lastErr    string
	wireAddr   string // binary-ingest address the peer advertises in /healthz
}

func (p *peer) getWireAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wireAddr
}

func (p *peer) isHealthy() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy
}

// mayHold reports whether p could hold the stream: true when the cached
// set contains it or when no set has been fetched yet (a just-created
// stream must stay reachable before the next sweep).
func (p *peer) mayHold(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.hasStreams || p.streams[name]
}

// addPeer registers a peer under its normalized base URL. Called from New
// and the POST /peers handler.
func (co *Coordinator) addPeer(addr string) error {
	u, err := url.Parse(addr)
	if err != nil {
		return err
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return fmt.Errorf("peer URL must be http(s), got %q", addr)
	}
	if u.Host == "" {
		return fmt.Errorf("peer URL %q has no host", addr)
	}
	norm := u.Scheme + "://" + u.Host
	c, err := client.New(norm, client.WithTimeout(co.cfg.PeerTimeout))
	if err != nil {
		return err
	}
	if co.peers.Reserve(norm, 0) != nil {
		return fmt.Errorf("peer %q already registered", norm)
	}
	// Optimistically healthy: the fall threshold evicts dead peers after
	// a few sweeps, while a live one is usable immediately.
	return co.peers.Publish(norm, &peer{addr: norm, c: c, healthy: true})
}

func (co *Coordinator) removePeer(addr string) bool {
	u, err := url.Parse(addr)
	norm := addr
	if err == nil && u.Host != "" {
		norm = u.Scheme + "://" + u.Host
	}
	_, ok := co.peers.Remove(norm, false)
	return ok
}

// peerList returns the peers sorted by address.
func (co *Coordinator) peerList() []*peer { return co.peers.List() }

func (co *Coordinator) healthyPeers() []*peer {
	var out []*peer
	for _, p := range co.peerList() {
		if p.isHealthy() {
			out = append(out, p)
		}
	}
	return out
}

// peerInfo is the JSON shape of one registry entry.
type peerInfo struct {
	Addr    string   `json:"addr"`
	Healthy bool     `json:"healthy"`
	Streams []string `json:"streams,omitempty"`
	LastErr string   `json:"last_error,omitempty"`
}

func (co *Coordinator) handlePeersList(w http.ResponseWriter, _ *http.Request) {
	peers := co.peerList()
	infos := make([]peerInfo, 0, len(peers))
	for _, p := range peers {
		p.mu.Lock()
		info := peerInfo{Addr: p.addr, Healthy: p.healthy, LastErr: p.lastErr}
		for name := range p.streams {
			info.Streams = append(info.Streams, name)
		}
		p.mu.Unlock()
		sort.Strings(info.Streams)
		infos = append(infos, info)
	}
	httpapi.JSON(w, http.StatusOK, map[string]any{"peers": infos})
}

func (co *Coordinator) handlePeerAdd(w http.ResponseWriter, r *http.Request) {
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
	if err := co.addPeer(req.Addr); err != nil {
		httpapi.Error(w, http.StatusBadRequest, "%v", err)
		return
	}
	if co.log != nil {
		co.log.Info("peer added", "addr", req.Addr)
	}
	httpapi.JSON(w, http.StatusCreated, map[string]any{"added": req.Addr})
}

func (co *Coordinator) handlePeerRemove(w http.ResponseWriter, r *http.Request) {
	addr := r.URL.Query().Get("addr")
	if addr == "" {
		httpapi.Error(w, http.StatusBadRequest, "missing addr parameter")
		return
	}
	if !co.removePeer(addr) {
		httpapi.Error(w, http.StatusNotFound, "peer %q not registered", addr)
		return
	}
	if co.log != nil {
		co.log.Info("peer removed", "addr", addr)
	}
	httpapi.JSON(w, http.StatusOK, map[string]any{"removed": addr})
}

// collectPeers exports the registry's scrape-time state:
// biasedres_fed_peers and biasedres_fed_peer_healthy{peer}.
func (co *Coordinator) collectPeers() []obs.Family {
	peers := co.peerList()
	healthyFam := obs.Family{Name: "biasedres_fed_peer_healthy", Type: "gauge",
		Help: "1 when the peer passed its last health evaluation, else 0."}
	for _, p := range peers {
		v := 0.0
		if p.isHealthy() {
			v = 1
		}
		healthyFam.Samples = append(healthyFam.Samples, obs.Sample{
			Labels: []obs.Label{{Key: "peer", Value: p.addr}}, Value: v,
		})
	}
	return []obs.Family{
		{Name: "biasedres_fed_peers", Type: "gauge",
			Help:    "Data nodes currently registered with the coordinator.",
			Samples: []obs.Sample{{Value: float64(len(peers))}}},
		healthyFam,
	}
}
