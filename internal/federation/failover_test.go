package federation

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/faulty"
)

// The failover suite runs every coordinator↔node byte through an
// internal/faulty proxy, so a "kill" is a real one: established
// connections go silent mid-stream and new ones hang, exactly what a
// kernel with no RST to send does — not a polite 503. With replication 2
// the acceptance bar is total invisibility: every coordinator response
// stays HTTP 200 with partial:false and the exact estimate while one
// node is blackholed, across ingest, query and migration activity.

// proxiedNode is a data node reachable only through its fault proxy.
type proxiedNode struct {
	*node
	px *faulty.Proxy
}

func startProxiedNodes(t testing.TB, k int) []*proxiedNode {
	t.Helper()
	out := make([]*proxiedNode, k)
	for i := range out {
		n := startNode(t, uint64(2000+i))
		px, err := faulty.New(strings.TrimPrefix(n.ts.URL, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { px.Close() })
		out[i] = &proxiedNode{node: n, px: px}
	}
	return out
}

func startProxiedCoordinator(t testing.TB, pnodes []*proxiedNode, cfg Config) (*Coordinator, string) {
	t.Helper()
	peers := make([]string, len(pnodes))
	for i, pn := range pnodes {
		peers[i] = pn.px.URL()
	}
	co, err := New(peers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co)
	t.Cleanup(func() {
		ts.Close()
		co.Close()
	})
	deadline := time.Now().Add(5 * time.Second)
	for co.sweeps.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("startup health sweep never completed")
		}
		time.Sleep(time.Millisecond)
	}
	co.Sweep(context.Background())
	return co, ts.URL
}

// failoverCfg trades the production 2s peer timeout for one short enough
// that a blackholed replica stalls an ingest batch for 250ms, not 2s —
// the sweep still exercises the full timeout path, just quickly.
func failoverCfg() Config {
	return Config{
		PeerTimeout:    250 * time.Millisecond,
		HedgeDelay:     50 * time.Millisecond,
		HealthInterval: time.Hour,
		Rise:           2,
		Fall:           2,
		Replication:    2,
		Shards:         2,
	}
}

// blackhole cuts one node off: established proxy connections go silent
// and new ones are accepted but never serviced.
func (pn *proxiedNode) blackhole() {
	pn.px.SetMode(faulty.Blackhole)
	pn.px.KillConns()
}

// heal restores the node and severs the silenced connections so clients
// re-dial clean ones.
func (pn *proxiedNode) heal() {
	pn.px.SetMode(faulty.Pass)
	pn.px.KillConns()
}

func seedFailoverStream(t testing.TB, fedURL, name string, n int) {
	t.Helper()
	if status, body := fedDo(t, http.MethodPut, fedURL+"/streams/"+name, managedCfg(2, 2)); status != http.StatusCreated {
		t.Fatalf("create: status %d body %v", status, body)
	}
	if status, _ := fedDo(t, http.MethodPost, fedURL+"/streams/"+name+"/points",
		map[string]any{"points": testPoints(n)}); status != http.StatusOK {
		t.Fatal("seed ingest failed")
	}
}

func TestFailoverKillDuringIngest(t *testing.T) {
	pnodes := startProxiedNodes(t, 3)
	co, fedURL := startProxiedCoordinator(t, pnodes, failoverCfg())
	ctx := context.Background()

	const seed, batch = 300, 30
	seedFailoverStream(t, fedURL, "s", seed)
	total := seed

	push := func(i int) {
		t.Helper()
		if status, body := fedDo(t, http.MethodPost, fedURL+"/streams/s/points",
			map[string]any{"points": testPoints(batch)}); status != http.StatusOK {
			t.Fatalf("batch %d: ingest status %d body %v", i, status, body)
		}
		total += batch
	}

	// Healthy warm-up, then the kill lands mid-stream.
	for i := 0; i < 3; i++ {
		push(i)
	}
	victim := pnodes[0]
	victim.blackhole()

	// Unswept: the coordinator still fans out to the dead replica and
	// eats a PeerTimeout per batch, but every batch must be acknowledged
	// by the surviving replica and succeed.
	for i := 3; i < 6; i++ {
		push(i)
	}
	// Swept: the victim leaves rotation and ingest goes back to fast.
	co.Sweep(ctx)
	co.Sweep(ctx)
	for i := 6; i < 10; i++ {
		push(i)
	}

	// Nothing was lost and nothing double-counted: the estimate is the
	// no-failure answer, not a tolerance band.
	est, body := mustCount(t, fedURL, "s", 0)
	if est != float64(total) {
		t.Fatalf("count with node blackholed = %v, want exactly %d", est, total)
	}
	wantShards(t, body, 2, 2, false)

	victim.heal()
	co.Sweep(ctx)
	co.Sweep(ctx)
	// The healed replica is stale; the dedup keeps answering from the
	// fresh sibling.
	if est, _ := mustCount(t, fedURL, "s", 0); est != float64(total) {
		t.Fatalf("count after heal = %v, want exactly %d", est, total)
	}
}

func TestFailoverKillDuringQueries(t *testing.T) {
	pnodes := startProxiedNodes(t, 3)
	co, fedURL := startProxiedCoordinator(t, pnodes, failoverCfg())
	ctx := context.Background()

	const n = 400
	seedFailoverStream(t, fedURL, "s", n)

	assertWhole := func(phase string, rounds int) {
		t.Helper()
		for i := 0; i < rounds; i++ {
			est, body := mustCount(t, fedURL, "s", 0)
			if est != n {
				t.Fatalf("%s round %d: count %v, want exactly %d", phase, i, est, n)
			}
			wantShards(t, body, 2, 2, false)
			status, sbody := fedGet(t, fedURL+"/streams/s/sample")
			if status != http.StatusOK {
				t.Fatalf("%s round %d: sample status %d", phase, i, status)
			}
			wantShards(t, sbody, 2, 2, false)
		}
	}

	assertWhole("healthy", 3)
	victim := pnodes[1]
	victim.blackhole()
	// Unswept: reads race the silent replica and win via the surviving
	// one plus the hedge grace — never via a partial answer.
	assertWhole("blackholed-unswept", 10)
	co.Sweep(ctx)
	co.Sweep(ctx)
	assertWhole("blackholed-swept", 10)
	victim.heal()
	co.Sweep(ctx)
	co.Sweep(ctx)
	assertWhole("healed", 3)
}

func TestFailoverKillDuringMigration(t *testing.T) {
	pnodes := startProxiedNodes(t, 3)
	co, fedURL := startProxiedCoordinator(t, pnodes, failoverCfg())
	ctx := context.Background()

	const n = 400
	seedFailoverStream(t, fedURL, "s", n)
	co.Sweep(ctx)

	// Kill a node, evict it, then drain the corpse: every shard it held
	// re-homes from sibling replicas.
	victim := pnodes[2]
	victim.blackhole()
	co.Sweep(ctx)
	co.Sweep(ctx)

	status, body := fedDo(t, http.MethodPost, fedURL+"/peers/drain",
		map[string]string{"addr": victim.px.URL()})
	if status != http.StatusOK {
		t.Fatalf("drain of blackholed node: status %d body %v", status, body)
	}
	if body["removed"] != true {
		t.Fatalf("blackholed node not removed: %v", body)
	}

	est, qbody := mustCount(t, fedURL, "s", 0)
	if est != n {
		t.Fatalf("post-drain count %v, want exactly %d", est, n)
	}
	wantShards(t, qbody, 2, 2, false)
	if status, _ := fedGet(t, fedURL+"/readyz"); status != http.StatusOK {
		t.Fatal("readyz not 200 after draining the dead node")
	}

	// The new subsystem's instruments are live on the shared registry.
	resp, err := http.Get(fedURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, fam := range []string{
		"biasedres_fed_replica_writes_total",
		"biasedres_fed_replica_dedup_dropped_total",
		"biasedres_fed_migration_streams_total",
		"biasedres_fed_drains_total",
	} {
		if !strings.Contains(text, fam) {
			t.Fatalf("/metrics missing %s after failover traffic", fam)
		}
	}
}

// TestFailoverEvictedHandsOnShard: a hands-on shard on an evicted,
// blackholed peer still counts in shards_total, but a read never dials
// it — the answer is a fast partial, not one PeerTimeout late.
func TestFailoverEvictedHandsOnShard(t *testing.T) {
	pnodes := startProxiedNodes(t, 3)
	cfg := failoverCfg()
	cfg.PeerTimeout = time.Second // well above the 10×HedgeDelay latency bound
	co, fedURL := startProxiedCoordinator(t, pnodes, cfg)
	nodes := make([]*node, len(pnodes))
	for i, pn := range pnodes {
		nodes[i] = pn.node
	}
	shardRoundRobin(t, nodes, "s", client.StreamConfig{Policy: "unbiased", Capacity: 600}, testPoints(1500))
	ctx := context.Background()
	co.Sweep(ctx)

	pnodes[2].blackhole()
	co.Sweep(ctx)
	co.Sweep(ctx)

	start := time.Now()
	est, body := mustCount(t, fedURL, "s", 900)
	elapsed := time.Since(start)
	wantShards(t, body, 2, 3, true)
	if est != 600 {
		t.Fatalf("h=900 estimate %v, want exactly 600 (2 shards x 300)", est)
	}
	if limit := 10 * cfg.HedgeDelay; elapsed >= limit {
		t.Fatalf("read with an evicted peer took %v, want < %v", elapsed, limit)
	}
}

// BenchmarkFailover measures recovery time: how long after a node is
// blackholed until the coordinator serves a whole (partial:false, exact)
// answer again. With replication 2 the expected cost is one hedge grace,
// not a health-sweep interval. cmd/benchingest -suite failover records
// the reported "recovery-ms" into BENCH_failover.json.
func BenchmarkFailover(b *testing.B) {
	pnodes := startProxiedNodes(b, 3)
	co, fedURL := startProxiedCoordinator(b, pnodes, failoverCfg())
	ctx := context.Background()

	const n = 400
	seedFailoverStream(b, fedURL, "s", n)
	co.Sweep(ctx)
	victim := pnodes[0]
	url := fedURL + "/streams/s/query?type=count&h=0"

	whole := func() bool {
		resp, err := http.Get(url)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return false
		}
		var body struct {
			Estimate float64 `json:"estimate"`
			Partial  bool    `json:"partial"`
		}
		if json.Unmarshal(raw, &body) != nil {
			return false
		}
		return !body.Partial && body.Estimate == n
	}

	var totalRecovery time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		victim.blackhole()
		start := time.Now()
		for !whole() {
		}
		totalRecovery += time.Since(start)

		b.StopTimer()
		victim.heal()
		co.Sweep(ctx)
		co.Sweep(ctx)
		if !whole() {
			b.Fatal("cluster did not restabilize after heal")
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(totalRecovery.Milliseconds())/float64(b.N), "recovery-ms")
}
