package federation

import (
	"net/http"
	"net/url"
	"reflect"
	"testing"

	"biasedres/internal/client"
)

// TestCoordinatorAnswersLikeNode: a coordinator over one node holding a
// hands-on stream has a one-shard layout, so its merge is the node's own
// walk and every statistic field must equal the node's /query answer
// exactly. Both render through query.Answer, so error statuses agree too.
func TestCoordinatorAnswersLikeNode(t *testing.T) {
	nodes := startNodes(t, 1)
	shardRoundRobin(t, nodes, "s", client.StreamConfig{Policy: "variable", Lambda: 1e-3, Capacity: 256}, testPoints(1200))
	if err := nodes[0].c.CreateStream("empty", client.StreamConfig{Policy: "variable", Lambda: 1e-3, Capacity: 16}); err != nil {
		t.Fatal(err)
	}
	_, fed := startCoordinator(t, nodes, testCfg())
	node := nodes[0].ts.URL

	fields := map[string][]string{
		"count":       {"estimate", "variance"},
		"average":     {"average"},
		"classdist":   {"distribution"},
		"groupavg":    {"groups"},
		"selectivity": {"selectivity"},
	}
	for typ, keys := range fields {
		for _, h := range []string{"0", "500"} {
			q := "/streams/s/query?type=" + typ + "&h=" + h + "&dims=0,1&lo=1,0&hi=6,4"
			ns, nb := fedGet(t, node+q)
			cs, cb := fedGet(t, fed.URL+q)
			if ns != http.StatusOK || cs != http.StatusOK {
				t.Fatalf("%s h=%s: node %d %v, coordinator %d %v", typ, h, ns, nb, cs, cb)
			}
			wantShards(t, cb, 1, 1, false)
			for _, k := range keys {
				if !reflect.DeepEqual(nb[k], cb[k]) {
					t.Fatalf("%s h=%s %s: node %v, coordinator %v", typ, h, k, nb[k], cb[k])
				}
			}
		}
	}

	for _, c := range []struct {
		q           string
		node, coord int
	}{
		{"/streams/s/query?type=nope", http.StatusBadRequest, http.StatusBadRequest},
		{"/streams/s/query?type=quantile&h=0&dim=0&q=0.5", http.StatusOK, http.StatusBadRequest},
		{"/streams/empty/query?type=average&h=0", http.StatusConflict, http.StatusConflict},
	} {
		if got, body := fedGet(t, node+c.q); got != c.node {
			t.Errorf("node %s: status %d body %v, want %d", c.q, got, body, c.node)
		}
		if got, body := fedGet(t, fed.URL+c.q); got != c.coord {
			t.Errorf("coordinator %s: status %d body %v, want %d", c.q, got, body, c.coord)
		}
	}
}

// TestCoordinatorAsksOnlyForUsedSums: only average and groupavg read the
// per-dimension sums, so every other federated type asks its shards for
// dim=0 and average leaves dim to the shard.
func TestCoordinatorAsksOnlyForUsedSums(t *testing.T) {
	nodes := startNodes(t, 2)
	shardRoundRobin(t, nodes, "s", client.StreamConfig{Policy: "variable", Lambda: 1e-3, Capacity: 64}, testPoints(400))
	_, fed := startCoordinator(t, nodes, testCfg())

	for typ, want := range map[string][]string{
		"count":       {"0"},
		"classdist":   {"0"},
		"selectivity": {"0"},
		"average":     nil,
		"groupavg":    nil,
	} {
		if status, body := fedGet(t, fed.URL+"/streams/s/query?h=100&dims=0&lo=0&hi=4&type="+typ); status != http.StatusOK {
			t.Fatalf("%s: status %d body %v", typ, status, body)
		}
		for i, n := range nodes {
			raw, _ := n.accumQuery.Load().(string)
			sent, err := url.ParseQuery(raw)
			if err != nil {
				t.Fatal(err)
			}
			if got := sent["dim"]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: node %d got /accum?%s, want dim %v", typ, i, raw, want)
			}
		}
	}
}
