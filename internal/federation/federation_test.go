package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"biasedres/internal/client"
	"biasedres/internal/server"
)

// testCfg keeps the background health loop out of the way (manual Sweep
// calls drive all transitions) and makes dead-peer hedges fail fast.
func testCfg() Config {
	return Config{
		PeerTimeout:    2 * time.Second,
		HedgeDelay:     50 * time.Millisecond,
		HealthInterval: time.Hour,
		Rise:           2,
		Fall:           2,
	}
}

// node is one in-process data node: a server.Server behind an httptest
// listener, with a switchable "down" mode that 503s every request so
// health transitions can be exercised without losing the listener address.
type node struct {
	srv        *server.Server
	ts         *httptest.Server
	c          *client.Client
	down       atomic.Bool
	busy       atomic.Bool  // 429 every HTTP ingest, with Retry-After: 1
	ingests    atomic.Int32 // HTTP ingest requests received
	failAccum  atomic.Int32 // 503 this many upcoming /accum calls
	accumQuery atomic.Value // raw query string of the last /accum call
}

func startNode(t testing.TB, seed uint64) *node {
	t.Helper()
	n := &node{srv: server.New(seed)}
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.down.Load() {
			http.Error(w, `{"error":"induced outage"}`, http.StatusServiceUnavailable)
			return
		}
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/points") {
			n.ingests.Add(1)
			if n.busy.Load() {
				w.Header().Set("Retry-After", "1")
				http.Error(w, `{"error":"induced backpressure"}`, http.StatusTooManyRequests)
				return
			}
		}
		if strings.HasSuffix(r.URL.Path, "/accum") {
			n.accumQuery.Store(r.URL.RawQuery)
		}
		if strings.HasSuffix(r.URL.Path, "/accum") && n.failAccum.Add(-1) >= 0 {
			http.Error(w, `{"error":"induced accum failure"}`, http.StatusServiceUnavailable)
			return
		}
		n.srv.ServeHTTP(w, r)
	}))
	c, err := client.New(n.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	n.c = c
	t.Cleanup(func() {
		n.ts.Close()
		n.srv.Close()
	})
	return n
}

func startNodes(t testing.TB, k int) []*node {
	t.Helper()
	nodes := make([]*node, k)
	for i := range nodes {
		nodes[i] = startNode(t, uint64(1000+i))
	}
	return nodes
}

func startCoordinator(t testing.TB, nodes []*node, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	peers := make([]string, len(nodes))
	for i, n := range nodes {
		peers[i] = n.ts.URL
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
	// runHealth fires one sweep immediately at startup; wait it out so the
	// manual sweeps below are the only probes and rise/fall counting is
	// deterministic (testCfg's hour-long interval keeps the ticker silent).
	deadline := time.Now().Add(5 * time.Second)
	for co.sweeps.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("startup health sweep never completed")
		}
		time.Sleep(time.Millisecond)
	}
	co.Sweep(context.Background())
	return co, ts
}

// fedGet fetches a coordinator URL and decodes the JSON body.
func fedGet(t testing.TB, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var body map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &body); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp.StatusCode, body
}

// testPoints is the deterministic workload shared by the merge tests:
// values (i%10, i%7), label i%3.
func testPoints(n int) []client.Point {
	pts := make([]client.Point, n)
	for i := range pts {
		label := i % 3
		pts[i] = client.Point{Values: []float64{float64(i % 10), float64(i % 7)}, Label: &label}
	}
	return pts
}

// shardRoundRobin splits points across k nodes the way a round-robin
// ingest tier would: point i goes to node i%k.
func shardRoundRobin(t *testing.T, nodes []*node, name string, cfg client.StreamConfig, pts []client.Point) {
	t.Helper()
	for _, n := range nodes {
		if err := n.c.CreateStream(name, cfg); err != nil {
			t.Fatal(err)
		}
	}
	shards := make([][]client.Point, len(nodes))
	for i, p := range pts {
		shards[i%len(nodes)] = append(shards[i%len(nodes)], p)
	}
	for i, n := range nodes {
		if _, err := n.c.Push(name, shards[i]); err != nil {
			t.Fatal(err)
		}
	}
}

func wantShards(t *testing.T, body map[string]any, ok, total int, partial bool) {
	t.Helper()
	if got := int(body["shards_ok"].(float64)); got != ok {
		t.Fatalf("shards_ok = %d, want %d (body %v)", got, ok, body)
	}
	if got := int(body["shards_total"].(float64)); got != total {
		t.Fatalf("shards_total = %d, want %d (body %v)", got, total, body)
	}
	if got := body["partial"].(bool); got != partial {
		t.Fatalf("partial = %v, want %v (body %v)", got, partial, body)
	}
}

// TestFederatedMergeMatchesSingleNode is the merge-correctness property
// test: one stream round-robined across 3 nodes must, through the
// coordinator, answer count/average/classdist/groupavg/selectivity like a
// single node holding the whole stream. Both sides are unbiased HT
// estimators over their own random reservoirs, so the comparison is
// distributional, not exact — per-shard capacity is sized so the whole
// federation and the reference node hold the same total budget.
func TestFederatedMergeMatchesSingleNode(t *testing.T) {
	const n = 3000
	pts := testPoints(n)

	whole := startNode(t, 7)
	if err := whole.c.CreateStream("s", client.StreamConfig{Policy: "variable", Lambda: 1e-4, Capacity: 3072}); err != nil {
		t.Fatal(err)
	}
	if _, err := whole.c.Push("s", pts); err != nil {
		t.Fatal(err)
	}

	nodes := startNodes(t, 3)
	shardRoundRobin(t, nodes, "s", client.StreamConfig{Policy: "variable", Lambda: 1e-4, Capacity: 1024}, pts)
	_, fed := startCoordinator(t, nodes, testCfg())

	for _, h := range []uint64{0, 900} {
		est, _, err := whole.c.Count("s", h)
		if err != nil {
			t.Fatal(err)
		}
		status, body := fedGet(t, fmt.Sprintf("%s/streams/s/query?type=count&h=%d", fed.URL, h))
		if status != http.StatusOK {
			t.Fatalf("count h=%d: status %d body %v", h, status, body)
		}
		wantShards(t, body, 3, 3, false)
		got := body["estimate"].(float64)
		if math.Abs(got-est) > 0.25*est {
			t.Fatalf("count h=%d: federated %v vs single-node %v", h, got, est)
		}
		if body["variance"].(float64) < 0 {
			t.Fatalf("count h=%d: negative merged variance", h)
		}
	}
	// h=0 covers the whole stream, so the count comparison against ground
	// truth can be tight.
	status, body := fedGet(t, fed.URL+"/streams/s/query?type=count&h=0")
	if status != http.StatusOK {
		t.Fatalf("count: status %d", status)
	}
	if got := body["estimate"].(float64); math.Abs(got-n) > 0.15*n {
		t.Fatalf("whole-stream count %v, want ~%d", got, n)
	}

	// Average: ratio statistic, tight on both sides.
	avg, err := whole.c.Average("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	status, body = fedGet(t, fed.URL+"/streams/s/query?type=average&h=0")
	if status != http.StatusOK {
		t.Fatalf("average: status %d body %v", status, body)
	}
	wantShards(t, body, 3, 3, false)
	got := body["average"].([]any)
	if len(got) != len(avg) {
		t.Fatalf("average dims %d vs %d", len(got), len(avg))
	}
	for d := range avg {
		if math.Abs(got[d].(float64)-avg[d]) > 0.5 {
			t.Fatalf("average[%d]: federated %v vs single-node %v", d, got[d], avg[d])
		}
	}

	// Class distribution: labels cycle i%3, so each share is ~1/3.
	dist, err := whole.c.ClassDistribution("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	status, body = fedGet(t, fed.URL+"/streams/s/query?type=classdist&h=0")
	if status != http.StatusOK {
		t.Fatalf("classdist: status %d body %v", status, body)
	}
	wire := body["distribution"].(map[string]any)
	if len(wire) != 3 || len(dist) != 3 {
		t.Fatalf("classdist labels: federated %d, single-node %d, want 3", len(wire), len(dist))
	}
	for label, share := range dist {
		fshare := wire[fmt.Sprintf("%d", label)].(float64)
		if math.Abs(fshare-share) > 0.08 || math.Abs(fshare-1.0/3) > 0.08 {
			t.Fatalf("classdist[%d]: federated %v, single-node %v, want ~1/3", label, fshare, share)
		}
	}

	// Group averages: per-label per-dim means.
	groups, err := whole.c.GroupAverage("s", 0)
	if err != nil {
		t.Fatal(err)
	}
	status, body = fedGet(t, fed.URL+"/streams/s/query?type=groupavg&h=0")
	if status != http.StatusOK {
		t.Fatalf("groupavg: status %d body %v", status, body)
	}
	fgroups := body["groups"].(map[string]any)
	if len(fgroups) != len(groups) {
		t.Fatalf("groupavg labels: federated %d, single-node %d", len(fgroups), len(groups))
	}
	for label, mean := range groups {
		fmean := fgroups[fmt.Sprintf("%d", label)].([]any)
		for d := range mean {
			if math.Abs(fmean[d].(float64)-mean[d]) > 0.6 {
				t.Fatalf("groupavg[%d][%d]: federated %v vs single-node %v", label, d, fmean[d], mean[d])
			}
		}
	}

	// Selectivity: dim 0 takes values 0..9 uniformly, so [0,4] holds ~half
	// the stream.
	status, body = fedGet(t, fed.URL+"/streams/s/query?type=selectivity&h=0&dims=0&lo=0&hi=4")
	if status != http.StatusOK {
		t.Fatalf("selectivity: status %d body %v", status, body)
	}
	wantShards(t, body, 3, 3, false)
	if sel := body["selectivity"].(float64); math.Abs(sel-0.5) > 0.1 {
		t.Fatalf("selectivity %v, want ~0.5", sel)
	}

	// Quantile is not linearly mergeable and must be refused up front.
	status, _ = fedGet(t, fed.URL+"/streams/s/query?type=quantile&h=0&q=0.5")
	if status != http.StatusBadRequest {
		t.Fatalf("quantile: status %d, want 400", status)
	}
}

// TestFederatedPartialFailure: with one of three shard nodes down, the
// coordinator degrades — HTTP 200, partial:true, a 2-of-3-shard estimate —
// and never surfaces a 5xx for queries or samples.
func TestFederatedPartialFailure(t *testing.T) {
	nodes := startNodes(t, 3)
	shardRoundRobin(t, nodes, "s", client.StreamConfig{Policy: "variable", Lambda: 1e-4, Capacity: 1024}, testPoints(1500))
	_, fed := startCoordinator(t, nodes, testCfg())

	// Take node 2 down without a health sweep noticing: the coordinator
	// still targets it and must absorb the failure per-shard.
	nodes[2].down.Store(true)

	status, body := fedGet(t, fed.URL+"/streams/s/query?type=count&h=0")
	if status != http.StatusOK {
		t.Fatalf("partial count: status %d body %v, want 200", status, body)
	}
	wantShards(t, body, 2, 3, true)
	// Two healthy shards hold ~2/3 of the stream.
	if est := body["estimate"].(float64); math.Abs(est-1000) > 250 {
		t.Fatalf("2-of-3 count estimate %v, want ~1000", est)
	}

	status, body = fedGet(t, fed.URL+"/streams/s/sample")
	if status != http.StatusOK {
		t.Fatalf("partial sample: status %d, want 200", status)
	}
	wantShards(t, body, 2, 3, true)

	// All shards down: degradation has a floor — an estimate built from
	// zero shards would be a silent zero, so that one case is an error.
	nodes[0].down.Store(true)
	nodes[1].down.Store(true)
	status, _ = fedGet(t, fed.URL+"/streams/s/query?type=count&h=0")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("all-shards-down: status %d, want 503", status)
	}
}

// TestPartialFailureHorizonSplit is the regression test for horizon
// splitting under partial failure: the read path used to divide the
// global horizon by len(targets) — the peers it could reach — instead of
// the stream's shard count, so losing one of three shards silently
// widened each survivor's window from ⌈h/3⌉ to ⌈h/2⌉ and inflated the
// estimate. Unbiased reservoirs with capacity above the per-shard volume
// retain everything at p=1, making the counts exact: the discriminating
// assertion is 600 (two shards × ⌈900/3⌉), where the buggy split
// returned 900 — indistinguishable from a fully healthy answer.
func TestPartialFailureHorizonSplit(t *testing.T) {
	nodes := startNodes(t, 3)
	shardRoundRobin(t, nodes, "s",
		client.StreamConfig{Policy: "unbiased", Capacity: 600}, testPoints(1500))
	co, fed := startCoordinator(t, nodes, testCfg())
	ctx := context.Background()

	// Healthy baseline: h=900 splits into ⌈900/3⌉ = 300 per shard.
	status, body := fedGet(t, fed.URL+"/streams/s/query?type=count&h=900")
	if status != http.StatusOK {
		t.Fatalf("healthy count: status %d body %v", status, body)
	}
	wantShards(t, body, 3, 3, false)
	if est := body["estimate"].(float64); math.Abs(est-900) > 1e-6 {
		t.Fatalf("healthy h=900 estimate %v, want exactly 900", est)
	}

	// Evict node 2 (Fall = 2 sweeps). Its cached stream set survives the
	// failed probes, so the coordinator still knows the stream spans 3
	// shards even though it can only reach 2, and says the answer is
	// missing one.
	nodes[2].down.Store(true)
	co.Sweep(ctx)
	co.Sweep(ctx)

	status, body = fedGet(t, fed.URL+"/streams/s/query?type=count&h=900")
	if status != http.StatusOK {
		t.Fatalf("degraded count: status %d body %v", status, body)
	}
	wantShards(t, body, 2, 3, true)
	// Each surviving shard must still answer for its ⌈900/3⌉ = 300 share:
	// 600 total. The pre-fix split by reachable peers gave ⌈900/2⌉ per
	// shard = 900, overstating the degraded estimate by half.
	if est := body["estimate"].(float64); math.Abs(est-600) > 1e-6 {
		t.Fatalf("degraded h=900 estimate %v, want exactly 600 (2 shards x 300)", est)
	}

	// h=0 (whole stream) is unaffected by splitting: the two reachable
	// shards report their full 500 points each.
	status, body = fedGet(t, fed.URL+"/streams/s/query?type=count&h=0")
	if status != http.StatusOK {
		t.Fatalf("degraded whole-stream count: status %d", status)
	}
	if est := body["estimate"].(float64); math.Abs(est-1000) > 1e-6 {
		t.Fatalf("degraded h=0 estimate %v, want exactly 1000", est)
	}
}

// TestHandsOnStreamBeforeSweep pins where a hands-on stream is read
// from: the peers whose routing hint names it. Created behind the
// coordinator's back on 2 of 3 nodes, it is not found until the next
// sweep refreshes the hints, and then it is exactly 2 shards — never 3
// shards' worth of horizon split over the 2 that answer.
func TestHandsOnStreamBeforeSweep(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())
	shardRoundRobin(t, nodes[:2], "s",
		client.StreamConfig{Policy: "unbiased", Capacity: 600}, testPoints(1000))

	status, body := fedGet(t, fed.URL+"/streams/s/query?type=count&h=900")
	if status != http.StatusNotFound {
		t.Fatalf("count before the sweep: status %d body %v, want 404", status, body)
	}

	co.Sweep(context.Background())
	status, body = fedGet(t, fed.URL+"/streams/s/query?type=count&h=900")
	if status != http.StatusOK {
		t.Fatalf("count after the sweep: status %d body %v", status, body)
	}
	wantShards(t, body, 2, 2, false)
	// h=900 splits into ⌈900/2⌉ = 450 per shard, all retained at p=1.
	if est := body["estimate"].(float64); est != 900 {
		t.Fatalf("h=900 estimate %v, want exactly 900 (2 shards x 450)", est)
	}
}

// TestSingleReplicaShardHedges: a shard with one replica still gets the
// hedged retry every peer call has, so a replica that fails one /accum
// call fast costs a retry, not the shard.
func TestSingleReplicaShardHedges(t *testing.T) {
	cfg := testCfg()
	// Long enough that no healthy call is hedged for being slow: the one
	// hedge counted is the fast-failure retry.
	cfg.HedgeDelay = time.Second
	const n = 400
	for _, tc := range []struct {
		name   string
		shards int
		// setup creates the stream and returns the node to fail.
		setup func(t *testing.T, co *Coordinator, fedURL string, nodes []*node) *node
	}{
		{"hands-on", 2, func(t *testing.T, co *Coordinator, fedURL string, nodes []*node) *node {
			shardRoundRobin(t, nodes, "s", client.StreamConfig{Policy: "unbiased", Capacity: 600}, testPoints(n))
			co.Sweep(context.Background())
			return nodes[0]
		}},
		{"managed replicas:1", 1, func(t *testing.T, co *Coordinator, fedURL string, nodes []*node) *node {
			if status, body := fedDo(t, http.MethodPut, fedURL+"/streams/s", managedCfg(1, 1)); status != http.StatusCreated {
				t.Fatalf("create: status %d body %v", status, body)
			}
			if status, body := fedDo(t, http.MethodPost, fedURL+"/streams/s/points",
				map[string]any{"points": testPoints(n)}); status != http.StatusOK {
				t.Fatalf("ingest: status %d body %v", status, body)
			}
			holder := co.placement("s", 0, 1)[0].addr
			for _, nd := range nodes {
				if nd.ts.URL == holder {
					return nd
				}
			}
			t.Fatalf("placement chose unknown peer %q", holder)
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := startNodes(t, 2)
			co, fed := startCoordinator(t, nodes, cfg)
			victim := tc.setup(t, co, fed.URL, nodes)

			hedges := co.hedges.Value()
			victim.failAccum.Store(1)
			est, body := mustCount(t, fed.URL, "s", 0)
			wantShards(t, body, tc.shards, tc.shards, false)
			if est != n {
				t.Fatalf("count %v, want exactly %d", est, n)
			}
			if got := co.hedges.Value() - hedges; got != 1 {
				t.Fatalf("hedged requests rose by %d, want 1", got)
			}
		})
	}
}

// TestHealthRiseFall drives the rise/fall thresholds with manual sweeps:
// one failed probe must not evict a peer, Fall consecutive ones must, and
// recovery symmetrically needs Rise consecutive successes.
func TestHealthRiseFall(t *testing.T) {
	nodes := startNodes(t, 2)
	shardRoundRobin(t, nodes, "s", client.StreamConfig{Policy: "variable", Lambda: 1e-3, Capacity: 256}, testPoints(400))
	co, fed := startCoordinator(t, nodes, testCfg())
	ctx := context.Background()

	healthyCount := func() int {
		n := 0
		for _, p := range co.peerList() {
			if p.isHealthy() {
				n++
			}
		}
		return n
	}

	nodes[1].down.Store(true)
	co.Sweep(ctx)
	if healthyCount() != 2 {
		t.Fatal("one failed probe evicted a peer (fall=2)")
	}
	co.Sweep(ctx)
	if healthyCount() != 1 {
		t.Fatal("peer still healthy after 2 consecutive failed probes")
	}

	// The unhealthy peer is out of rotation, but its shard still counts:
	// the remaining node answers, and the response is a partial 1 of 2.
	status, body := fedGet(t, fed.URL+"/streams/s/query?type=count&h=0")
	if status != http.StatusOK {
		t.Fatalf("query with evicted peer: status %d", status)
	}
	wantShards(t, body, 1, 2, true)

	nodes[1].down.Store(false)
	co.Sweep(ctx)
	if healthyCount() != 1 {
		t.Fatal("one good probe revived a peer (rise=2)")
	}
	co.Sweep(ctx)
	if healthyCount() != 2 {
		t.Fatal("peer still unhealthy after 2 consecutive good probes")
	}
	status, body = fedGet(t, fed.URL+"/streams/s/query?type=count&h=0")
	if status != http.StatusOK {
		t.Fatalf("query after recovery: status %d", status)
	}
	wantShards(t, body, 2, 2, false)

	// Coordinator readiness tracks peer health: with every peer down it
	// reports 503.
	nodes[0].down.Store(true)
	nodes[1].down.Store(true)
	co.Sweep(ctx)
	co.Sweep(ctx)
	status, _ = fedGet(t, fed.URL+"/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("readyz with no healthy peers: status %d, want 503", status)
	}
	status, _ = fedGet(t, fed.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz must stay 200 (liveness), got %d", status)
	}
}

// TestPeerAddRemove exercises the registry's HTTP surface.
func TestPeerAddRemove(t *testing.T) {
	nodes := startNodes(t, 2)
	for _, n := range nodes {
		if err := n.c.CreateStream("s", client.StreamConfig{Policy: "variable", Lambda: 1e-3, Capacity: 128}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.c.Push("s", testPoints(100)); err != nil {
			t.Fatal(err)
		}
	}
	co, fed := startCoordinator(t, nodes[:1], testCfg())

	status, body := fedGet(t, fed.URL+"/streams/s/query?type=count&h=0")
	if status != http.StatusOK {
		t.Fatalf("pre-add query: status %d", status)
	}
	wantShards(t, body, 1, 1, false)

	resp, err := http.Post(fed.URL+"/peers", "application/json",
		jsonBody(t, map[string]string{"addr": nodes[1].ts.URL}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add peer: status %d, want 201", resp.StatusCode)
	}
	co.Sweep(context.Background())

	status, body = fedGet(t, fed.URL+"/peers")
	if status != http.StatusOK || len(body["peers"].([]any)) != 2 {
		t.Fatalf("peers after add: status %d body %v", status, body)
	}
	status, body = fedGet(t, fed.URL+"/streams/s/query?type=count&h=0")
	if status != http.StatusOK {
		t.Fatalf("post-add query: status %d", status)
	}
	wantShards(t, body, 2, 2, false)

	// Duplicate add is rejected.
	resp, err = http.Post(fed.URL+"/peers", "application/json",
		jsonBody(t, map[string]string{"addr": nodes[1].ts.URL}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate add: status %d, want 400", resp.StatusCode)
	}

	req, err := http.NewRequest(http.MethodDelete, fed.URL+"/peers?addr="+nodes[1].ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove peer: status %d, want 200", resp.StatusCode)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("remove missing peer: status %d, want 404", resp.StatusCode)
	}
	status, body = fedGet(t, fed.URL+"/streams/s/query?type=count&h=0")
	if status != http.StatusOK {
		t.Fatalf("post-remove query: status %d", status)
	}
	wantShards(t, body, 1, 1, false)
}

// TestFederatedSampleOrigins: a federated sample concatenates every
// shard's reservoir, each point tagged with the peer it came from.
func TestFederatedSampleOrigins(t *testing.T) {
	nodes := startNodes(t, 2)
	shardRoundRobin(t, nodes, "s", client.StreamConfig{Policy: "variable", Lambda: 1e-3, Capacity: 64}, testPoints(500))
	_, fed := startCoordinator(t, nodes, testCfg())

	status, body := fedGet(t, fed.URL+"/streams/s/sample")
	if status != http.StatusOK {
		t.Fatalf("sample: status %d body %v", status, body)
	}
	wantShards(t, body, 2, 2, false)
	points := body["points"].([]any)
	if len(points) == 0 {
		t.Fatal("empty federated sample")
	}
	byOrigin := map[string]int{}
	for _, raw := range points {
		p := raw.(map[string]any)
		origin := p["origin"].(string)
		if origin != nodes[0].ts.URL && origin != nodes[1].ts.URL {
			t.Fatalf("unknown origin %q", origin)
		}
		if p["prob"].(float64) <= 0 {
			t.Fatalf("point with non-positive inclusion probability: %v", p)
		}
		byOrigin[origin]++
	}
	if len(byOrigin) != 2 {
		t.Fatalf("expected points from both shards, got %v", byOrigin)
	}
	// t is the max shard position: 250 points per shard.
	if tt := body["t"].(float64); tt != 250 {
		t.Fatalf("merged t = %v, want 250", tt)
	}

	// /streams lists the union across healthy peers.
	status, body = fedGet(t, fed.URL+"/streams")
	if status != http.StatusOK {
		t.Fatalf("streams: status %d", status)
	}
	streams := body["streams"].([]any)
	if len(streams) != 1 || streams[0].(string) != "s" {
		t.Fatalf("federated stream list %v, want [s]", streams)
	}

	// Unknown streams 404 cleanly through the fan-out (every peer answers
	// 404 → no shard holds it).
	status, _ = fedGet(t, fed.URL+"/streams/nope/sample")
	if status != http.StatusNotFound {
		t.Fatalf("missing stream sample: status %d, want 404", status)
	}
	status, _ = fedGet(t, fed.URL+"/streams/nope/query?type=count&h=0")
	if status != http.StatusNotFound {
		t.Fatalf("missing stream query: status %d, want 404", status)
	}
}

func jsonBody(t testing.TB, v any) io.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return &buf
}
