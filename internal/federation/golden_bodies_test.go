package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"biasedres/internal/client"
	"biasedres/internal/httpapi"
	"biasedres/internal/server"
)

// Golden HTTP bodies: testdata/bodies holds, one file per body, what a
// data node and a coordinator answer on the read and model routes for a
// fixed seed and workload, the node's health, stream-list, stats and
// ingest answers (a synchronous 200 and an async node's 202), a 404 from
// each, plus the body the client sends to attach a model. TestGoldenBodies replays the workload and compares every body
// byte for byte, so a change to any body type that moves a field, a tag or
// a map-key order shows here; TestGoldenBodiesDecode feeds each recorded
// body to the client method that reads it.
//
// The coordinator's sample tags each point with the node URL it came from,
// and httptest ports vary, so origins are rewritten to node0/node1 (the
// nodes' order by URL, which is also the coordinator's gather order).
//
// Regenerate with:
//
//	BIASEDRES_GEN_GOLDEN=1 go test -run TestGenerateGoldenBodies ./internal/federation

const bodiesDir = "testdata/bodies"

// goldenNodeReads are the data-node reads whose bodies are pinned, keyed by
// fixture file name.
var goldenNodeReads = map[string]string{
	"node_accum":             "/streams/s/accum?h=0",
	"node_accum_rect":        "/streams/s/accum?h=300&dims=0,1&lo=0,0&hi=4,3",
	"node_accum_nosums":      "/streams/s/accum?h=100&dim=0",
	"node_sample":            "/streams/s/sample",
	"node_range":             "/streams/s/range?start=100&max_points=8",
	"node_range_tiered":      "/streams/tiered/range?start=1&max_points=6",
	"node_query_count":       "/streams/s/query?type=count&h=200",
	"node_query_average":     "/streams/s/query?type=average&h=200",
	"node_query_classdist":   "/streams/s/query?type=classdist&h=0",
	"node_query_groupavg":    "/streams/s/query?type=groupavg&h=0",
	"node_query_selectivity": "/streams/s/query?type=selectivity&h=0&dims=0&lo=0&hi=4",
	"node_query_quantile":    "/streams/s/query?type=quantile&h=0&dim=1&q=0.5",
	"node_model":             "/streams/s/model",
	"node_model_eval":        "/streams/s/model/eval",
	"node_healthz":           "/healthz",
	"node_streams":           "/streams",
	"node_stats":             "/streams/s",
	"node_stats_tiered":      "/streams/tiered",
}

// goldenFedReads are the coordinator reads whose bodies are pinned.
var goldenFedReads = map[string]string{
	"fed_query_count":       "/streams/f/query?type=count&h=200",
	"fed_query_average":     "/streams/f/query?type=average&h=0",
	"fed_query_classdist":   "/streams/f/query?type=classdist&h=0",
	"fed_query_groupavg":    "/streams/f/query?type=groupavg&h=0",
	"fed_query_selectivity": "/streams/f/query?type=selectivity&h=0&dims=0&lo=0&hi=4",
	"fed_sample":            "/streams/f/sample",
}

// goldenModelConfig is the model attached to the fixture stream, and the
// client request body pinned as client_model_attach.
var goldenModelConfig = client.ModelConfig{Dim: 2, ShortH: 50, LongH: 200, CheckEvery: 20, Window: 64}

// goldenBodyFixture builds the fixture and returns every pinned body by
// name.
func goldenBodyFixture(t *testing.T) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}

	// One node: a labelled 2-dimensional stream with a model, and a tier
	// ladder so /range names the tier that served it.
	n := startNode(t, 42)
	if err := n.c.CreateStream("s", client.StreamConfig{Policy: "variable", Lambda: 5e-3, Capacity: 48}); err != nil {
		t.Fatal(err)
	}
	if err := n.c.CreateStream("tiered", client.StreamConfig{Policy: "variable", Lambda: 0.02, Capacity: 16, Tiers: 3, TierRatio: 4}); err != nil {
		t.Fatal(err)
	}
	rec := recordRequestBodies(t, n)
	if _, err := rec.CreateModel("s", goldenModelConfig); err != nil {
		t.Fatal(err)
	}
	out["client_model_attach"] = rec.body()
	pts := testPoints(600)
	for i := 0; i < len(pts); i += 100 {
		if _, err := n.c.Push("s", pts[i:i+100]); err != nil {
			t.Fatal(err)
		}
		if _, err := n.c.Push("tiered", pts[i:i+100]); err != nil {
			t.Fatal(err)
		}
	}
	for name, path := range goldenNodeReads {
		out[name] = goldenGet(t, n.ts.URL+path)
	}
	out["node_error_404"] = goldenFetch(t, http.MethodGet, n.ts.URL+"/streams/missing", nil, http.StatusNotFound)
	out["node_ingest"] = goldenFetch(t, http.MethodPost, n.ts.URL+"/streams/s/points", ingestBody(t, testPoints(10)), http.StatusOK)

	// A node with async ingest answers its first batch with 202, and the
	// batch is all that is pending.
	async := server.New(42, server.WithIngestShards(1, 4))
	ats := httptest.NewServer(async)
	t.Cleanup(func() {
		ats.Close()
		async.Close()
	})
	goldenFetch(t, http.MethodPut, ats.URL+"/streams/q", []byte(`{"policy":"variable","lambda":0.005,"capacity":48}`), http.StatusCreated)
	out["node_ingest_queued"] = goldenFetch(t, http.MethodPost, ats.URL+"/streams/q/points", ingestBody(t, testPoints(10)), http.StatusAccepted)

	// A coordinator over two nodes holding a round-robined stream. The
	// nodes share a seed so their order by URL, not their start order,
	// decides which half of the stream each holds.
	nodes := []*node{startNode(t, 7), startNode(t, 7)}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ts.URL < nodes[j].ts.URL })
	shardRoundRobin(t, nodes, "f", client.StreamConfig{Policy: "variable", Lambda: 1e-3, Capacity: 64}, testPoints(400))
	_, fed := startCoordinator(t, nodes, testCfg())
	for name, path := range goldenFedReads {
		body := goldenGet(t, fed.URL+path)
		for i, nd := range nodes {
			body = bytes.ReplaceAll(body, []byte(strconv.Quote(nd.ts.URL)), []byte(strconv.Quote("node"+strconv.Itoa(i))))
		}
		out[name] = body
	}
	out["fed_error_404"] = goldenFetch(t, http.MethodGet, fed.URL+"/streams/missing/query?type=count&h=0", nil, http.StatusNotFound)
	return out
}

// goldenGet fetches url and returns its body, failing on any status but
// 200.
func goldenGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d body %s", url, resp.StatusCode, body)
	}
	return body
}

// goldenFetch sends body to url with method and returns the answer's
// body, failing on any status but want.
func goldenFetch(t *testing.T, method, url string, body []byte, want int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != want {
		t.Fatalf("%s %s: status %d body %s, want %d", method, url, resp.StatusCode, got, want)
	}
	return got
}

// ingestBody is the ingest request body for pts.
func ingestBody(t *testing.T, pts []client.Point) []byte {
	t.Helper()
	body, err := json.Marshal(server.IngestRequest{Points: pts})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// requestRecorder is a client whose requests pass through to a node while
// the last request body is kept.
type requestRecorder struct {
	*client.Client
	last chan []byte
}

func (r requestRecorder) body() []byte { return <-r.last }

func recordRequestBodies(t *testing.T, n *node) requestRecorder {
	t.Helper()
	rec := requestRecorder{last: make(chan []byte, 1)}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		rec.last <- body
		r.Body = io.NopCloser(bytes.NewReader(body))
		n.srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	rec.Client = c
	return rec
}

func TestGenerateGoldenBodies(t *testing.T) {
	if os.Getenv("BIASEDRES_GEN_GOLDEN") != "1" {
		t.Skip("set BIASEDRES_GEN_GOLDEN=1 to regenerate the golden HTTP bodies")
	}
	if err := os.RemoveAll(bodiesDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(bodiesDir, 0o755); err != nil {
		t.Fatal(err)
	}
	bodies := goldenBodyFixture(t)
	for name, body := range bodies {
		if err := os.WriteFile(filepath.Join(bodiesDir, name+".json"), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d bodies to %s", len(bodies), bodiesDir)
}

// readGoldenBodies loads every recorded body by name.
func readGoldenBodies(t *testing.T) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(bodiesDir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		body, err := os.ReadFile(filepath.Join(bodiesDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(e.Name(), ".json")] = body
	}
	return out
}

func TestGoldenBodies(t *testing.T) {
	want := readGoldenBodies(t)
	got := goldenBodyFixture(t)
	if len(got) != len(want) {
		t.Errorf("fixture produces %d bodies, %d recorded", len(got), len(want))
	}
	for name, body := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no recorded body", name)
		} else if !bytes.Equal(body, w) {
			t.Errorf("%s:\n got %s\nwant %s", name, body, w)
		}
	}
}

// TestGoldenBodiesDecode serves each recorded body to the client method
// that reads it. Bodies the client decodes into a declared type must
// re-encode to the recorded bytes: the client reads the very type the
// server writes.
func TestGoldenBodiesDecode(t *testing.T) {
	bodies := readGoldenBodies(t)
	var served string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(bodies[served])
	}))
	defer ts.Close()
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reencodes := func(name string, v any) {
		t.Helper()
		blob, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.TrimSuffix(bodies[name], []byte("\n")); !bytes.Equal(blob, want) {
			t.Errorf("%s re-encodes as\n%s\nwant\n%s", name, blob, want)
		}
	}

	for _, name := range []string{"node_accum", "node_accum_rect", "node_accum_nosums"} {
		served = name
		a, err := c.AccumContext(ctx, "s", 0, true, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Count <= 0 || len(a.Classes) == 0 {
			t.Errorf("%s decodes to an empty accumulator: %+v", name, a)
		}
		reencodes(name, a)
	}
	for _, name := range []string{"node_sample", "fed_sample"} {
		served = name
		s, err := c.SampleContext(ctx, "s")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.T == 0 || len(s.Points) == 0 {
			t.Errorf("%s decodes to an empty sample", name)
		}
		if name == "node_sample" {
			reencodes(name, s)
		}
	}
	for _, name := range []string{"node_range", "node_range_tiered"} {
		served = name
		rr, err := c.Range("s", 1, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rr.Buckets) == 0 || (rr.Tier != nil) != (name == "node_range_tiered") {
			t.Errorf("%s decodes to %+v", name, rr)
		}
		reencodes(name, rr)
	}
	served = "node_model"
	st, err := c.ModelStats("s")
	if err != nil {
		t.Fatal(err)
	}
	reencodes("node_model", st)
	served = "node_model_eval"
	ev, err := c.ModelEval("s")
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Confusion) == 0 {
		t.Error("node_model_eval decodes to an empty confusion matrix")
	}
	reencodes("node_model_eval", ev)

	for _, side := range []string{"node", "fed"} {
		served = side + "_query_count"
		if est, v, err := c.Count("s", 0); err != nil || est <= 0 || v < 0 {
			t.Errorf("%s count: %v, %v, %v", side, est, v, err)
		}
		served = side + "_query_average"
		if avg, err := c.Average("s", 0); err != nil || len(avg) != 2 {
			t.Errorf("%s average: %v, %v", side, avg, err)
		}
		served = side + "_query_classdist"
		if dist, err := c.ClassDistribution("s", 0); err != nil || len(dist) != 3 {
			t.Errorf("%s classdist: %v, %v", side, dist, err)
		}
		served = side + "_query_groupavg"
		if groups, err := c.GroupAverage("s", 0); err != nil || len(groups) != 3 || len(groups[2]) != 2 {
			t.Errorf("%s groupavg: %v, %v", side, groups, err)
		}
	}
	served = "node_query_quantile"
	if q, err := c.Quantile("s", 0, 1, 0.5); err != nil || q < 0 || q > 6 {
		t.Errorf("quantile: %v, %v", q, err)
	}
	for _, name := range []string{"node_query_selectivity", "fed_query_selectivity"} {
		var sel struct {
			Selectivity *float64 `json:"selectivity"`
		}
		if err := json.Unmarshal(bodies[name], &sel); err != nil || sel.Selectivity == nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	served = "node_healthz"
	h, err := c.HealthInfoContext(ctx)
	if err != nil || h.Status != "ok" || h.Streams != 2 || h.Points == 0 {
		t.Errorf("node_healthz decodes to %+v, %v", h, err)
	}
	reencodes("node_healthz", h)
	served = "node_streams"
	names, err := c.ListStreams()
	if err != nil || len(names) != 2 {
		t.Errorf("node_streams decodes to %v, %v", names, err)
	}
	reencodes("node_streams", httpapi.StreamList{Streams: names})
	for _, name := range []string{"node_stats", "node_stats_tiered"} {
		served = name
		st, err := c.Stats("s")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Processed == 0 || (len(st.Tiers) == 3) != (name == "node_stats_tiered") {
			t.Errorf("%s decodes to %+v", name, st)
		}
		for i, tier := range st.Tiers {
			if tier.Index != i || tier.Len == 0 {
				t.Errorf("%s tier %d decodes to %+v", name, i, tier)
			}
		}
		reencodes(name, st)
	}
	for name, want := range map[string]uint64{"node_ingest": 610, "node_ingest_queued": 0} {
		served = name
		if processed, err := c.Push("s", testPoints(10)); err != nil || processed != want {
			t.Errorf("%s: Push returns %d, %v; want %d", name, processed, err, want)
		}
	}
	var ingested httpapi.Ingested
	var queued httpapi.Queued
	for name, ack := range map[string]any{"node_ingest": &ingested, "node_ingest_queued": &queued} {
		if err := json.Unmarshal(bodies[name], ack); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reencodes(name, ack)
	}
	if ingested != (httpapi.Ingested{Ingested: 10, Processed: 610}) || queued != (httpapi.Queued{Pending: 10, Queued: 10}) {
		t.Errorf("ingest acks decode to %+v and %+v", ingested, queued)
	}

	// Error bodies reach the caller as an APIError's message.
	errs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		_, _ = w.Write(bodies[served])
	}))
	defer errs.Close()
	ec, err := client.New(errs.URL)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"node_error_404": `stream "missing" not found`,
		"fed_error_404":  `stream "missing" not found on any peer`,
	} {
		served = name
		_, err := ec.Stats("missing")
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound || apiErr.Message != want {
			t.Errorf("%s: Stats returns %v, want a 404 with %q", name, err, want)
		}
		reencodes(name, httpapi.ErrorBody{Error: want})
	}

	// The recorded model-attach request decodes into the server's type
	// and re-encodes to the client's bytes.
	var cfg client.ModelConfig
	if err := json.Unmarshal(bodies["client_model_attach"], &cfg); err != nil || cfg != goldenModelConfig {
		t.Errorf("client_model_attach decodes to %+v, %v", cfg, err)
	}
	reencodes("client_model_attach", cfg)
}
