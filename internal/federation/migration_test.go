package federation

import (
	"bytes"
	"cmp"
	"context"
	"net/http"
	"slices"
	"strconv"
	"testing"

	"biasedres/internal/client"
)

// TestDrainMigratesByteIdentical is the migration acceptance test: after
// quiescing ingest, draining a node ships every resident stream — shard
// replicas and plain node-local streams alike — to its next placement,
// and the transfer blob re-exported from the new holder is byte-for-byte
// the blob the source would have written: the reservoir state, pending
// indices and config survive the move exactly.
func TestDrainMigratesByteIdentical(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())
	ctx := context.Background()

	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(2, 1)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	const n = 500
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points",
		map[string]any{"points": testPoints(n)}); status != http.StatusOK {
		t.Fatal("ingest failed")
	}

	// The victim is shard 0's only holder; give it a plain (non-managed)
	// stream too, created behind the coordinator's back.
	victimAddr := co.placement("s", 0, 1)[0].addr
	var victim *node
	for _, nd := range nodes {
		if nd.ts.URL == victimAddr {
			victim = nd
		}
	}
	if err := victim.c.CreateStream("legacy", client.StreamConfig{Policy: "unbiased", Capacity: 256}); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.c.Push("legacy", testPoints(120)); err != nil {
		t.Fatal(err)
	}
	co.Sweep(ctx) // pick the new stream up in the routing hints

	// Quiesce and capture the source's exact transfer bytes per stream.
	resident, err := victim.c.ListStreams()
	if err != nil {
		t.Fatal(err)
	}
	if len(resident) == 0 {
		t.Fatal("victim holds nothing; test setup broken")
	}
	preDrain := map[string][]byte{}
	for _, name := range resident {
		blob, err := victim.c.TransferContext(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		preDrain[name] = blob
	}

	status, body := fedDo(t, http.MethodPost, fed.URL+"/peers/drain",
		map[string]string{"addr": victimAddr})
	if status != http.StatusOK {
		t.Fatalf("drain: status %d body %v", status, body)
	}
	if body["removed"] != true {
		t.Fatalf("drain did not remove the peer: %v", body)
	}
	for _, p := range co.peerList() {
		if p.addr == victimAddr {
			t.Fatal("drained peer still in the registry")
		}
	}

	migrated := body["migrated"].([]any)
	if len(migrated) != len(resident) {
		t.Fatalf("migrated %d streams, victim held %d: %v", len(migrated), len(resident), body)
	}
	for _, raw := range migrated {
		m := raw.(map[string]any)
		name, to := m["stream"].(string), m["to"].(string)
		if to == victimAddr {
			t.Fatalf("stream %q migrated to its own source", name)
		}
		var dst *node
		for _, nd := range nodes {
			if nd.ts.URL == to {
				dst = nd
			}
		}
		if dst == nil {
			t.Fatalf("stream %q migrated to unknown peer %q", name, to)
		}
		// The checkpoint-equivalence assertion: re-exporting from the new
		// holder reproduces the pre-drain bytes exactly.
		blob, err := dst.c.TransferContext(ctx, name)
		if err != nil {
			t.Fatalf("re-export %q from %s: %v", name, to, err)
		}
		if !bytes.Equal(blob, preDrain[name]) {
			t.Fatalf("stream %q: post-migration transfer differs from pre-drain source (%d vs %d bytes)",
				name, len(blob), len(preDrain[name]))
		}
		// Best-effort source cleanup ran.
		if names, err := victim.c.ListStreams(); err == nil {
			for _, left := range names {
				if left == name {
					t.Fatalf("stream %q still on the drained node", name)
				}
			}
		}
	}

	// Reads re-route to the new placement with nothing lost: the count is
	// still exact and whole.
	est, qbody := mustCount(t, fed.URL, "s", 0)
	if est != n {
		t.Fatalf("post-drain count %v, want exactly %d", est, n)
	}
	wantShards(t, qbody, 2, 2, false)
	if status, _ := fedGet(t, fed.URL+"/readyz"); status != http.StatusOK {
		t.Fatal("readyz not 200 after a clean drain")
	}
}

// TestDrainDeadNodeUsesReplica: draining a crashed node must still work
// when its shards are replicated — the transfer blob is exported from a
// live sibling replica instead of the corpse, and queries stay whole
// throughout.
func TestDrainDeadNodeUsesReplica(t *testing.T) {
	nodes := startNodes(t, 3)
	co, fed := startCoordinator(t, nodes, testCfg())
	ctx := context.Background()

	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/r", managedCfg(1, 2)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	const n = 300
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/r/points",
		map[string]any{"points": testPoints(n)}); status != http.StatusOK {
		t.Fatal("ingest failed")
	}
	co.Sweep(ctx)

	// Crash one of the shard's two replicas for real: the coordinator
	// sweeps it unhealthy, and its HTTP surface only errors.
	victimAddr := co.placement("r", 0, 2)[0].addr
	var victim *node
	for _, nd := range nodes {
		if nd.ts.URL == victimAddr {
			victim = nd
		}
	}
	victim.down.Store(true)
	co.Sweep(ctx)
	co.Sweep(ctx)

	status, body := fedDo(t, http.MethodPost, fed.URL+"/peers/drain",
		map[string]string{"addr": victimAddr})
	if status != http.StatusOK {
		t.Fatalf("drain of dead node: status %d body %v", status, body)
	}
	if body["removed"] != true {
		t.Fatalf("dead node not removed: %v", body)
	}

	// The shard survives on the remaining peers (sibling replica, plus
	// whatever the drain installed) and the count is untouched.
	holders := 0
	for _, nd := range nodes {
		if nd == victim {
			continue
		}
		names, err := nd.c.ListStreams()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if name == shardStream("r", 0) {
				holders++
			}
		}
	}
	if holders == 0 {
		t.Fatal("no surviving holder of the shard after draining its dead replica")
	}
	est, qbody := mustCount(t, fed.URL, "r", 0)
	if est != n {
		t.Fatalf("post-dead-drain count %v, want exactly %d", est, n)
	}
	wantShards(t, qbody, 1, 1, false)
}

// TestDrainInstallsFromReplicaBytes pins the replica-sourced transfer
// path: a shard created when the federation was two nodes lives on both;
// the federation then grows, so once one original holder dies and is
// drained, the shard's next placement can rank a new, empty peer above
// the surviving sibling — forcing an actual install (bytes > 0) whose
// blob had to come from the sibling replica, the dead source being
// unable to answer. (With a static peer set this path never fires: HRW
// keeps relative order, so the sibling always ranks first and the drain
// correctly ships nothing.)
func TestDrainInstallsFromReplicaBytes(t *testing.T) {
	nodes := startNodes(t, 4)
	co, fed := startCoordinator(t, nodes[:2], testCfg())
	ctx := context.Background()

	// Pick as victim an original holder whose removal ranks a new peer
	// first for the stream's shard. HRW ranks by the httptest servers'
	// random addresses, so try stream names until one has such a victim:
	// with two candidate victims and two new peers most names do.
	var name string
	var victim *node
	for i := 0; victim == nil; i++ {
		name = "r" + strconv.Itoa(i)
		for _, cand := range nodes[:2] {
			var remaining []*peer
			for _, nd := range nodes {
				if nd != cand {
					remaining = append(remaining, &peer{addr: nd.ts.URL})
				}
			}
			top := rankPeers(shardKey(name, 0), remaining)[0].addr
			if top == nodes[2].ts.URL || top == nodes[3].ts.URL {
				victim = cand
				break
			}
		}
	}
	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/"+name, managedCfg(1, 2)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	const n = 200
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/"+name+"/points",
		map[string]any{"points": testPoints(n)}); status != http.StatusOK {
		t.Fatal("ingest failed")
	}
	co.Sweep(ctx)

	// Grow the federation with two empty peers.
	for _, nd := range nodes[2:] {
		if status, _ := fedDo(t, http.MethodPost, fed.URL+"/peers",
			map[string]string{"addr": nd.ts.URL}); status != http.StatusCreated {
			t.Fatal("peer add failed")
		}
	}
	co.Sweep(ctx)

	victim.down.Store(true)
	co.Sweep(ctx)
	co.Sweep(ctx)

	status, body := fedDo(t, http.MethodPost, fed.URL+"/peers/drain",
		map[string]string{"addr": victim.ts.URL})
	if status != http.StatusOK {
		t.Fatalf("drain: status %d body %v", status, body)
	}
	migrated := body["migrated"].([]any)
	if len(migrated) != 1 {
		t.Fatalf("migrated %v, want exactly the one shard", migrated)
	}
	m := migrated[0].(map[string]any)
	if m["bytes"].(float64) <= 0 {
		t.Fatalf("migration shipped no bytes (%v); replica-sourced install not exercised", m)
	}
	if m["to"].(string) != nodes[2].ts.URL && m["to"].(string) != nodes[3].ts.URL {
		t.Fatalf("migrated to %v, want one of the new peers", m["to"])
	}
	if est, _ := mustCount(t, fed.URL, name, 0); est != n {
		t.Fatalf("post-drain count %v, want %d", est, n)
	}
}

// TestDrainFailureKeepsPeer: when no destination can accept a stream the
// drain reports 502 with the per-stream failure and leaves the peer
// registered — removing it would shift reads onto replicas that miss its
// data.
func TestDrainFailureKeepsPeer(t *testing.T) {
	nodes := startNodes(t, 2)
	co, fed := startCoordinator(t, nodes, testCfg())
	ctx := context.Background()

	if status, _ := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(1, 1)); status != http.StatusCreated {
		t.Fatal("create failed")
	}
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points",
		map[string]any{"points": testPoints(50)}); status != http.StatusOK {
		t.Fatal("ingest failed")
	}
	co.Sweep(ctx)

	victimAddr := co.placement("s", 0, 1)[0].addr
	for _, nd := range nodes {
		if nd.ts.URL != victimAddr {
			nd.down.Store(true) // the only possible destination is dead
		}
	}
	co.Sweep(ctx)
	co.Sweep(ctx)

	status, body := fedDo(t, http.MethodPost, fed.URL+"/peers/drain",
		map[string]string{"addr": victimAddr})
	if status != http.StatusBadGateway {
		t.Fatalf("doomed drain: status %d body %v, want 502", status, body)
	}
	if failed, ok := body["failed"].(map[string]any); !ok || len(failed) == 0 {
		t.Fatalf("502 drain report names no failed streams: %v", body)
	}
	found := false
	for _, p := range co.peerList() {
		if p.addr == victimAddr {
			found = true
		}
	}
	if !found {
		t.Fatal("failed drain removed the peer anyway")
	}
	// The data is still served from where it sits.
	if est, _ := mustCount(t, fed.URL, "s", 0); est != 50 {
		t.Fatalf("count after failed drain %v, want 50", est)
	}

	// Unknown peers 404 without side effects.
	if status, _ := fedDo(t, http.MethodPost, fed.URL+"/peers/drain",
		map[string]string{"addr": "http://127.0.0.1:1"}); status != http.StatusNotFound {
		t.Fatalf("drain of unknown peer: status %d, want 404", status)
	}
}

// TestDrainKeepsSourceOverBehindCopy: after a peer joins and outranks a
// one-replica shard's holder, the next ingest backfills an empty shard
// stream on the joiner. Draining the old holder must not delete its 100
// points in favour of the joiner's 10 — whether the joiner's copy is
// known from a sweep's hint or only from its 409 to the install. The
// drain answers 502 with the shard under failed, and the holder stays
// registered with its data.
func TestDrainKeepsSourceOverBehindCopy(t *testing.T) {
	for _, sweep := range []bool{true, false} {
		name := map[bool]string{true: "hinted", false: "conflict"}[sweep]
		t.Run(name, func(t *testing.T) {
			nodes := startNodes(t, 2)
			key := shardKey("s", 0)
			slices.SortFunc(nodes, func(a, b *node) int { return cmp.Compare(hrwScore(key, a.ts.URL), hrwScore(key, b.ts.URL)) })
			holder, joiner := nodes[0], nodes[1]
			co, fed := startCoordinator(t, []*node{holder}, testCfg())
			ctx := context.Background()
			if status, body := fedDo(t, http.MethodPut, fed.URL+"/streams/s", managedCfg(1, 1)); status != http.StatusCreated {
				t.Fatalf("create: status %d body %v", status, body)
			}
			if status, body := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points", map[string]any{"points": testPoints(100)}); status != http.StatusOK {
				t.Fatalf("ingest: status %d body %v", status, body)
			}
			co.Sweep(ctx)
			if status, body := fedDo(t, http.MethodPost, fed.URL+"/peers", map[string]string{"addr": joiner.ts.URL}); status != http.StatusCreated {
				t.Fatalf("add peer: status %d body %v", status, body)
			}
			co.Sweep(ctx)
			co.Sweep(ctx)
			if status, body := fedDo(t, http.MethodPost, fed.URL+"/streams/s/points", map[string]any{"points": testPoints(10)}); status != http.StatusOK {
				t.Fatalf("ingest after the join: status %d body %v", status, body)
			}
			if st, err := joiner.c.Stats("s@0"); err != nil || st.Processed != 10 {
				t.Fatalf("joiner's backfilled shard: %+v, %v, want 10 points", st, err)
			}
			if sweep {
				co.Sweep(ctx)
			}

			status, body := fedDo(t, http.MethodPost, fed.URL+"/peers/drain", map[string]string{"addr": holder.ts.URL})
			if status != http.StatusBadGateway {
				t.Fatalf("drain: status %d body %v, want 502", status, body)
			}
			if failed, _ := body["failed"].(map[string]any); failed["s@0"] == nil {
				t.Fatalf("drain report does not fail s@0: %v", body)
			}
			if !slices.ContainsFunc(co.peerList(), func(p *peer) bool { return p.addr == holder.ts.URL }) {
				t.Fatal("failed drain removed the holder")
			}
			if st, err := holder.c.Stats("s@0"); err != nil || st.Processed != 100 {
				t.Fatalf("holder's shard after the drain: %+v, %v, want its 100 points", st, err)
			}
		})
	}
}
