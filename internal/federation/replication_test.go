package federation

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"testing"

	"biasedres/internal/client"
	"biasedres/internal/wire"
)

// fedDo sends one JSON request to the coordinator and decodes the reply.
func fedDo(t testing.TB, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		req, err = http.NewRequest(method, url, jsonBody(t, body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req, err = http.NewRequest(method, url, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(raw) > 0 {
		_ = json.Unmarshal(raw, &out)
	}
	return resp.StatusCode, out
}

// managedCfg is the create body the replication tests share: unbiased
// with per-shard capacity above the per-shard volume, so inclusion
// probabilities are all 1 and counts are exact — any replica double
// count or dropped shard shows up as an integer error, not noise.
func managedCfg(shards, replicas int) createStreamRequest {
	return createStreamRequest{
		StreamConfig: client.StreamConfig{Policy: "unbiased", Capacity: 4096},
		Shards:       shards,
		Replicas:     replicas,
	}
}

func mustCount(t testing.TB, fedURL, name string, h uint64) (est float64, body map[string]any) {
	t.Helper()
	status, body := fedGet(t, fmt.Sprintf("%s/streams/%s/query?type=count&h=%d", fedURL, name, h))
	if status != http.StatusOK {
		t.Fatalf("count %s h=%d: status %d body %v", name, h, status, body)
	}
	return body["estimate"].(float64), body
}

// TestManagedStreamLifecycle walks the coordinator-managed stream API
// end to end: create with shards and replicas, replicated ingest, exact
// deduped reads, the /streams union, and delete.
func TestManagedStreamLifecycle(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())

	status, body := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(2, 2))
	if status != http.StatusCreated {
		t.Fatalf("create: status %d body %v", status, body)
	}
	if body["shards"].(float64) != 2 || body["replicas"].(float64) != 2 {
		t.Fatalf("create echoed %v, want shards=2 replicas=2", body)
	}

	// Every shard replica must exist on exactly the placement-chosen
	// nodes, under the reserved "<stream>@<shard>" name.
	for shard := 0; shard < 2; shard++ {
		want := map[string]bool{}
		for _, p := range co.placement("s", shard, 2) {
			want[p.addr] = true
		}
		for _, n := range nodes {
			names, err := n.c.ListStreams()
			if err != nil {
				t.Fatal(err)
			}
			has := false
			for _, name := range names {
				if name == shardStream("s", shard) {
					has = true
				}
			}
			if has != want[n.ts.URL] {
				t.Fatalf("node %s holds shard %d = %v, placement says %v", n.ts.URL, shard, has, want[n.ts.URL])
			}
		}
	}

	// Re-create conflicts; reserved characters are rejected up front.
	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(2, 2)); status != http.StatusConflict {
		t.Fatalf("duplicate create: status %d, want 409", status)
	}
	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/bad@name", managedCfg(1, 1)); status != http.StatusBadRequest {
		t.Fatalf("reserved name create: status %d, want 400", status)
	}

	// Ingest through the coordinator; unmanaged streams are refused.
	const n = 1000
	status, body = fedDo(t, http.MethodPost, fed.URL+"/streams/s/points",
		map[string]any{"points": testPoints(n)})
	if status != http.StatusOK || body["ingested"].(float64) != n {
		t.Fatalf("ingest: status %d body %v", status, body)
	}
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/nope/points",
		map[string]any{"points": testPoints(1)}); status != http.StatusNotFound {
		t.Fatalf("unmanaged ingest: status %d, want 404", status)
	}

	// Replicas hold identical shard copies; the deduped merge must count
	// every point exactly once.
	est, body := mustCount(t, fed.URL, "s", 0)
	if est != n {
		t.Fatalf("replicated count = %v, want exactly %d", est, n)
	}
	wantShards(t, body, 2, 2, false)

	// The sample path dedupes the same way: two shards' reservoirs, each
	// from one replica, probabilities all 1.
	status, body = fedGet(t, fed.URL+"/streams/s/sample")
	if status != http.StatusOK {
		t.Fatalf("sample: status %d", status)
	}
	wantShards(t, body, 2, 2, false)
	if pts := body["points"].([]any); len(pts) != n {
		t.Fatalf("deduped sample has %d points, want %d", len(pts), n)
	}

	// GET /streams folds shard replicas back into the federated name.
	status, body = fedGet(t, fed.URL+"/streams")
	if status != http.StatusOK {
		t.Fatalf("streams: status %d", status)
	}
	streams := body["streams"].([]any)
	if len(streams) != 1 || streams[0].(string) != "s" {
		t.Fatalf("stream union %v, want [s]", streams)
	}

	// Delete tears down every shard replica everywhere.
	if status, _ := fedDo(t, http.MethodDelete, fed.URL+"/streams/s", nil); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	for _, node := range nodes {
		names, err := node.c.ListStreams()
		if err != nil {
			t.Fatal(err)
		}
		if len(names) != 0 {
			t.Fatalf("node %s still holds %v after delete", node.ts.URL, names)
		}
	}
	if status, _ := fedDo(t, http.MethodDelete, fed.URL+"/streams/s", nil); status != http.StatusNotFound {
		t.Fatalf("double delete: status %d, want 404", status)
	}
}

// TestReplicatedKillNode is the ISSUE's acceptance scenario: with
// replication 2, losing any single data node mid-traffic must be
// invisible — every coordinator response stays HTTP 200 with
// partial:false and the exact estimate, whether the loss is fresh
// (health checker still thinks the node is up) or swept.
func TestReplicatedKillNode(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())

	if status, body := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(2, 2)); status != http.StatusCreated {
		t.Fatalf("create: status %d body %v", status, body)
	}
	const n = 1200
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points",
		map[string]any{"points": testPoints(n)}); status != http.StatusOK {
		t.Fatalf("ingest: status %d", status)
	}

	est, body := mustCount(t, fed.URL, "s", 0)
	if est != n {
		t.Fatalf("baseline count %v, want %d", est, n)
	}
	wantShards(t, body, 2, 2, false)

	for kill := range nodes {
		nodes[kill].down.Store(true)

		// Fresh failure: the coordinator still fans out to the dead
		// replica and must absorb the error per shard.
		est, body := mustCount(t, fed.URL, "s", 0)
		if est != n {
			t.Fatalf("kill node %d (unswept): count %v, want exactly %d", kill, est, n)
		}
		wantShards(t, body, 2, 2, false)

		// Swept failure: the dead replica is out of rotation entirely.
		co.Sweep(context.Background())
		co.Sweep(context.Background())
		est, body = mustCount(t, fed.URL, "s", 0)
		if est != n {
			t.Fatalf("kill node %d (swept): count %v, want exactly %d", kill, est, n)
		}
		wantShards(t, body, 2, 2, false)

		status, body := fedGet(t, fed.URL+"/streams/s/sample")
		if status != http.StatusOK {
			t.Fatalf("kill node %d: sample status %d", kill, status)
		}
		wantShards(t, body, 2, 2, false)

		// Readiness holds: every shard still has a reachable replica.
		if status, _ := fedGet(t, fed.URL+"/readyz"); status != http.StatusOK {
			t.Fatalf("kill node %d: readyz %d, want 200", kill, status)
		}

		nodes[kill].down.Store(false)
		co.Sweep(context.Background())
		co.Sweep(context.Background())
	}

	// Killing exactly shard 0's replica set orphans that shard: the
	// response degrades to partial (or 503 when no shard survives) but
	// never lies with a full-looking answer.
	for _, p := range co.placement("s", 0, 2) {
		for _, nd := range nodes {
			if nd.ts.URL == p.addr {
				nd.down.Store(true)
			}
		}
	}
	status, body := fedGet(t, fed.URL+"/streams/s/query?type=count&h=0")
	switch status {
	case http.StatusOK:
		if !body["partial"].(bool) {
			t.Fatalf("two nodes down: partial=false with body %v", body)
		}
	case http.StatusServiceUnavailable:
	default:
		t.Fatalf("two nodes down: status %d, want 200(partial) or 503", status)
	}
}

// TestWritesDuringOutage: points ingested while a replica is down land
// on its siblings, the count stays exact during the outage, and after
// the node comes back the max-position dedup keeps preferring the fresh
// sibling over the stale revived copy — no double counting, no
// regression. (Replication here has no anti-entropy: a revived replica
// stays behind until new placement or migration refreshes it, which is
// exactly why the dedup must pick by stream position and not at random.)
func TestWritesDuringOutage(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())

	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(2, 2)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	const n = 400
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points",
		map[string]any{"points": testPoints(n)}); status != http.StatusOK {
		t.Fatal("seed ingest failed")
	}

	nodes[1].down.Store(true)
	co.Sweep(context.Background())
	co.Sweep(context.Background())

	// Writes during the outage succeed and are immediately visible.
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points",
		map[string]any{"points": testPoints(60)}); status != http.StatusOK {
		t.Fatal("ingest during outage failed")
	}
	est, body := mustCount(t, fed.URL, "s", 0)
	if est != n+60 {
		t.Fatalf("count during outage %v, want exactly %d", est, n+60)
	}
	wantShards(t, body, 2, 2, false)

	// The revived node is stale by whatever its shards received while it
	// was down; reads must keep answering from the fresh siblings.
	nodes[1].down.Store(false)
	co.Sweep(context.Background())
	co.Sweep(context.Background())
	est, body = mustCount(t, fed.URL, "s", 0)
	if est != n+60 {
		t.Fatalf("count after revival %v, want exactly %d (stale replica must lose the dedup)", est, n+60)
	}
	wantShards(t, body, 2, 2, false)
}

// TestIngestBackfillsMissingReplica: a replica that lost its shard
// stream (wiped disk, fresh node in an old placement slot) 404s the
// push; the coordinator re-creates the stream from the registered config
// and resends, restoring the replication factor on the write path.
func TestIngestBackfillsMissingReplica(t *testing.T) {
	nodes := startNodes(t, 2)
	_, fed := startCoordinator(t, nodes, testCfg())

	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(1, 2)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points",
		map[string]any{"points": testPoints(100)}); status != http.StatusOK {
		t.Fatal("seed ingest failed")
	}

	// Wipe the shard from node 0 behind the coordinator's back.
	if err := nodes[0].c.DeleteStream(shardStream("s", 0)); err != nil {
		t.Fatal(err)
	}

	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points",
		map[string]any{"points": testPoints(50)}); status != http.StatusOK {
		t.Fatal("ingest with wiped replica failed")
	}
	names, err := nodes[0].c.ListStreams()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != shardStream("s", 0) {
		t.Fatalf("node 0 streams %v after backfill, want [%s]", names, shardStream("s", 0))
	}
}

// TestCoordinatorAdoptsHintedStreams: a brand-new coordinator over the
// same data nodes relearns managed streams from the "<stream>@<shard>"
// names its health sweep scrapes — no local state survives a restart,
// and none is needed.
func TestCoordinatorAdoptsHintedStreams(t *testing.T) {
	nodes := startNodes(t, 3)
	cfg := testCfg()
	cfg.Replication = 2
	_, fed1 := startCoordinator(t, nodes, cfg)

	if status, _ := fedDo(t, http.MethodPut, fed1.URL+"/streams/s", managedCfg(2, 2)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	const n = 600
	if status, _ := fedDo(t, http.MethodPost, fed1.URL+"/streams/s/points",
		map[string]any{"points": testPoints(n)}); status != http.StatusOK {
		t.Fatal("ingest failed")
	}

	// A second coordinator — think restart — sees only what peers hint.
	co2, fed2 := startCoordinator(t, nodes, cfg)
	fs, ok := co2.lookupFed("s")
	if !ok {
		t.Fatal("restarted coordinator did not adopt the hinted stream")
	}
	if fs.shards != 2 || fs.replicas != 2 {
		t.Fatalf("adopted shape shards=%d replicas=%d, want 2/2", fs.shards, fs.replicas)
	}
	est, body := mustCount(t, fed2.URL, "s", 0)
	if est != n {
		t.Fatalf("adopted count %v, want %d", est, n)
	}
	wantShards(t, body, 2, 2, false)

	// Writes work through the adopted entry too (placement is derived,
	// not gossiped, so both coordinators compute the same replica sets).
	if status, _ := fedDo(t, http.MethodPost, fed2.URL+"/streams/s/points",
		map[string]any{"points": testPoints(100)}); status != http.StatusOK {
		t.Fatal("ingest through restarted coordinator failed")
	}
	if est, _ := mustCount(t, fed1.URL, "s", 0); est != n+100 {
		t.Fatalf("count through first coordinator %v, want %d", est, n+100)
	}
}

// TestCreateCompletesPartlyAdoptedStream: a health sweep that runs while a
// create is in flight adopts the shard replicas already made, with too few
// shards and no config. The create must complete that entry — 201 with
// its own shape — so ingest and reads cover every shard, not a subset.
func TestCreateCompletesPartlyAdoptedStream(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())
	req := managedCfg(2, 2)

	// The create's first shard landed on one of its replicas; a sweep
	// adopts it before the create registers the stream.
	first := co.placement("s", 0, 2)[0].addr
	for _, n := range nodes {
		if n.ts.URL == first {
			if err := n.c.CreateStream(shardStream("s", 0), req.StreamConfig); err != nil {
				t.Fatal(err)
			}
		}
	}
	co.Sweep(context.Background())
	if fs, ok := co.lookupFed("s"); !ok || fs.shards != 1 {
		t.Fatalf("sweep did not adopt the partial stream: %v %+v", ok, fs)
	}

	status, body := fedDo(t, http.MethodPut, fed.URL+"/streams/s", req)
	if status != http.StatusCreated {
		t.Fatalf("create over the adopted entry: status %d body %v, want 201", status, body)
	}
	if body["shards"].(float64) != 2 {
		t.Fatalf("create echoed %v, want shards=2", body)
	}
	const n = 500
	if status, body := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points",
		map[string]any{"points": testPoints(n)}); status != http.StatusOK {
		t.Fatalf("ingest: status %d body %v", status, body)
	}
	est, body := mustCount(t, fed.URL, "s", 0)
	if est != n {
		t.Fatalf("count = %v, want %d across both shards", est, n)
	}
	wantShards(t, body, 2, 2, false)

	// The completed stream now has a config: a second create conflicts.
	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", req); status != http.StatusConflict {
		t.Fatalf("second create: status %d, want 409", status)
	}
}

// TestCoordinatorWireSink: the coordinator accepts binary ingest frames
// (wire.Sink) and fans them out like HTTP ingest; unknown streams are
// authoritative errors, not retries.
func TestCoordinatorWireSink(t *testing.T) {
	nodes := startNodes(t, 2)
	co, fed := startCoordinator(t, nodes, testCfg())

	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/w", managedCfg(2, 2)); status != http.StatusCreated {
		t.Fatal("create failed")
	}

	const n = 90
	f := &wire.Frame{Name: []byte("w"), Dim: 2, Count: n}
	f.Values = make([]float64, 0, n*2)
	f.Labels = make([]int32, 0, n)
	for i := 0; i < n; i++ {
		f.Values = append(f.Values, float64(i%10), float64(i%7))
		f.Labels = append(f.Labels, int32(i%3))
	}
	if reply := co.IngestFrame(f); reply.Status != wire.StatusOK {
		t.Fatalf("IngestFrame reply %+v, want OK", reply)
	}
	if est, _ := mustCount(t, fed.URL, "w", 0); est != n {
		t.Fatalf("wire-ingested count %v, want %d", est, n)
	}
	// Labels survived the frame decode: three classes, each ~1/3.
	status, body := fedGet(t, fed.URL+"/streams/w/query?type=classdist&h=0")
	if status != http.StatusOK {
		t.Fatalf("classdist: status %d", status)
	}
	dist := body["distribution"].(map[string]any)
	if len(dist) != 3 {
		t.Fatalf("classdist has %d labels, want 3", len(dist))
	}
	for label, share := range dist {
		if math.Abs(share.(float64)-1.0/3) > 1e-9 {
			t.Fatalf("classdist[%s] = %v, want exactly 1/3", label, share)
		}
	}

	bad := &wire.Frame{Name: []byte("unknown"), Dim: 1, Count: 1, Values: []float64{1}}
	if reply := co.IngestFrame(bad); reply.Status != wire.StatusError {
		t.Fatalf("unknown-stream frame reply %+v, want error", reply)
	}
}

// TestReadyzTracksStreamReachability: readiness is about data, not just
// peers — a stream whose only replica is down must flip /readyz to 503
// even while other peers are healthy, and Close fails readiness first.
func TestReadyzTracksStreamReachability(t *testing.T) {
	nodes := startNodes(t, 2)
	co, fed := startCoordinator(t, nodes, testCfg())

	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/solo", managedCfg(1, 1)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	co.Sweep(context.Background()) // refresh hints so the holder is known

	if status, _ := fedGet(t, fed.URL+"/readyz"); status != http.StatusOK {
		t.Fatal("readyz not 200 with all peers healthy")
	}

	holder := co.placement("solo", 0, 1)[0].addr
	var victim, bystander *node
	for _, n := range nodes {
		if n.ts.URL == holder {
			victim = n
		} else {
			bystander = n
		}
	}

	// Losing the bystander keeps the stream reachable: still ready.
	bystander.down.Store(true)
	co.Sweep(context.Background())
	co.Sweep(context.Background())
	if status, body := fedGet(t, fed.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("readyz %d after losing a non-holder: %v", status, body)
	}
	bystander.down.Store(false)

	// Losing the only holder must not: one healthy peer is not enough
	// when the data it serves is gone.
	victim.down.Store(true)
	co.Sweep(context.Background())
	co.Sweep(context.Background())
	if status, _ := fedGet(t, fed.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatal("readyz stayed 200 with the stream's only replica down")
	}

	victim.down.Store(false)
	co.Sweep(context.Background())
	co.Sweep(context.Background())
	if status, _ := fedGet(t, fed.URL+"/readyz"); status != http.StatusOK {
		t.Fatal("readyz did not recover with the holder back")
	}

	// Shutdown gates readiness before anything else.
	co.closing.Store(true)
	if status, _ := fedGet(t, fed.URL+"/readyz"); status != http.StatusServiceUnavailable {
		t.Fatal("readyz stayed 200 while closing")
	}
	co.closing.Store(false)
}
